"""Grid, spectral transform, differentiation, interpolation and arithmetic.

Oracles: a direct-summation discrete Fourier transform (for the spectral
round trip), symbolic derivatives evaluated on the grid, band-limited
exactness of trigonometric interpolation, a direct-summation interpolant
and higher-resolution self-consistency for off-grid sampling.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjresp import (
    NormalizationError,
    PositivityError,
    ScalarField,
    TorusGrid,
    VectorFieldT,
    VolumeDensity,
    divergence,
    field_from_json,
    field_to_csv,
    field_to_json,
    gradient,
    save_field,
    load_field,
)
from conjresp import fields, flow
from conjresp.fields import sample_coefficients


def dft_direct(values):
    """Direct-summation DFT oracle: c_k = (1/N) sum_j f_j exp(-2 pi i k j / N)."""
    n = values.shape[0]
    j = np.arange(n)
    out = np.zeros(n, dtype=complex)
    for idx, k in enumerate(np.fft.fftfreq(n, d=1.0 / n)):
        out[idx] = np.sum(values * np.exp(-2j * np.pi * k * j / n)) / n
    return out


def sample_direct(grid, stack, points):
    """Direct-summation interpolation oracle: Re sum_k c_k exp(2 pi i k . x)
    over the FFT-ordered wavenumbers, so a Nyquist mode enters as -N/2."""
    axes = np.meshgrid(*[grid.wavenumbers(i) for i in range(grid.dim)], indexing="ij")
    k = np.stack([a.ravel() for a in axes], axis=1)
    phases = np.exp(2j * np.pi * ((points % 1.0) @ k.T))
    return (phases @ stack.reshape(stack.shape[0], -1).T).real


def sample_complex_gemm(grid, stack, points):
    """The 1-d half sum as one complex GEMM, (phases @ rows.T).real: the sum
    `sample_coefficients` makes, but with bits that depend on the BLAS
    thread count."""
    half = grid.resolution[0] // 2
    phases = fields._half_phases(points[:, 0] % 1.0, grid.resolution[0])
    weights = np.full(half + 1, 2.0)
    weights[[0, half]] = 1.0
    return (phases @ (stack[:, : half + 1] * weights).T).real


def sample_complex_half_sum(grid, stack, points):
    """The 2-d half sum of real fields in complex arithmetic: one GEMM over
    the rows k0 = 0..N0/2 (0 and N0/2 once, the others twice), a batched
    matrix-vector product with the full axis-1 phases, and the term
    -c_{N0/2,N1/2} sin(pi N0 x0) sin(pi N1 x1) that restores the corner
    mode.  Its bits depend on the BLAS thread count at 256 x 256."""
    pts = points % 1.0
    (n0, n1), count = grid.resolution, stack.shape[0]
    h0, h1 = n0 // 2, n1 // 2
    weights = np.full((h0 + 1, 1), 2.0)
    weights[[0, h0]] = 1.0
    rows = stack[:, : h0 + 1] * weights
    half1 = fields._half_phases(pts[:, 1], n1)
    phases1 = np.concatenate([half1, half1[:, h1 - 1:0:-1].conj()], axis=1)
    partial = fields._half_phases(pts[:, 0], n0) @ rows.transpose(1, 0, 2).reshape(h0 + 1, -1)
    out = (partial.reshape(-1, count, n1) @ phases1[:, :, None])[:, :, 0].real
    corner = np.sin(np.pi * n0 * pts[:, 0]) * np.sin(np.pi * n1 * pts[:, 1])
    return out - np.outer(corner, stack[:, h0, h1].real)


# sample sizes of the thread-count tests: 90 1-d and 75 2-d shapes
THREAD_SHAPES = {"resolution": [128, 256, 512], "count": [1, 2, 6],
                 "m": [64, 100, 256, 300, 512, 1000, 1024, 2048, 3000, 4096]}
THREAD_SHAPES_2D = {"resolution": [[256, 256], [128, 128], [64, 64], [48, 48], [32, 16]],
                    "count": [1, 2, 6], "m": [57, 256, 1000, 2304, 4096]}
SAMPLE_ALL = """
import hashlib, itertools, json, sys
import numpy as np
from conjresp import ScalarField, TorusGrid
from conjresp.fields import sample_coefficients
band = int(sys.argv[2])  # 0: white noise; else mode lists with |k_i| <= band
digests = {}
for n, count, m in itertools.product(*json.loads(sys.argv[1]).values()):
    grid = TorusGrid(n)
    rng = np.random.default_rng(sum(grid.shape) + count)
    fields = [ScalarField.from_modes(grid, [[*map(int, rng.integers(-band, band + 1, grid.dim)),
                                             *rng.standard_normal(2)] for _ in range(3)])
              if band else ScalarField(grid, rng.standard_normal(grid.shape))
              for _ in range(count)]
    stack = np.stack([f.coefficients for f in fields])
    points = np.random.default_rng(m).uniform(-1.0, 2.0, (m, grid.dim))
    got = np.ascontiguousarray(sample_coefficients(grid, stack, points))
    digests[f"{n}/{count}/{m}"] = hashlib.sha256(got.tobytes()).hexdigest()
print(json.dumps(digests))
"""


def thread_dependent_shapes(shapes, band=0):
    """The shapes whose `sample_coefficients` bytes differ between one and
    two OpenBLAS threads, each run in its own process, and the shape count:
    on white-noise fields, or with ``band`` on mode-list fields whose
    wavenumbers are at most ``band`` in size."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(fields.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", SAMPLE_ALL, json.dumps(shapes), str(band)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(json.loads(done.stdout))
    return [shape for shape in digests[0] if digests[0][shape] != digests[1][shape]], len(digests[0])


def white_noise_stack(grid, count, seed):
    rng = np.random.default_rng(seed)
    return np.stack([ScalarField(grid, rng.standard_normal(grid.shape)).coefficients
                     for _ in range(count)])


def random_band_limited(grid, seed, max_mode=5, amplitude=1.0):
    rng = np.random.default_rng(seed)
    modes = []
    for _ in range(4):
        k = [int(rng.integers(-max_mode, max_mode + 1)) for _ in range(grid.dim)]
        modes.append(k + [float(rng.normal(0, amplitude)), float(rng.normal(0, amplitude))])
    return ScalarField.from_modes(grid, modes)


class TestTorusGrid:
    def test_points_and_shape(self):
        grid = TorusGrid((8, 16))
        assert grid.dim == 2
        assert grid.shape == (8, 16)
        pts = grid.points()
        assert pts.shape == (128, 2)
        # row-major: axis 0 slowest
        assert pts[0].tolist() == [0.0, 0.0]
        assert pts[1].tolist() == [0.0, 1.0 / 16.0]
        assert pts[16].tolist() == [1.0 / 8.0, 0.0]
        with pytest.raises(ValueError, match="read-only"):
            pts[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [(6,), (9,), (8, 7), (8, 8, 8), (4,), (64.7,), (True,),
                                     (8.0, 8)])
    def test_rejects_bad_resolutions(self, bad):
        with pytest.raises(ValueError):
            TorusGrid(bad)

    def test_accepts_numpy_integers(self):
        assert TorusGrid(np.array([16, 8])).resolution == (16, 8)
        assert TorusGrid(np.int64(32)).resolution == (32,)


class TestSpectral:
    def test_constant_field_is_a_single_coefficient(self):
        grid = TorusGrid(16)
        f = ScalarField.constant(grid, 1.0)
        c = f.coefficients
        assert abs(c[0] - 1.0) < 1e-15
        assert np.max(np.abs(c[1:])) < 1e-15

    def test_cosine_coefficients(self):
        grid = TorusGrid(16)
        f = ScalarField.from_function(grid, lambda x: np.cos(2 * np.pi * x))
        c = f.coefficients
        expected = np.zeros(16, dtype=complex)
        expected[1] = 0.5
        expected[-1] = 0.5
        assert np.max(np.abs(c - expected)) <= 1e-14

    def test_round_trip_against_direct_dft(self):
        grid = TorusGrid(16)
        rng = np.random.default_rng(11)
        values = rng.standard_normal(16)
        f = ScalarField(grid, values)
        assert np.max(np.abs(f.coefficients - dft_direct(values))) <= 1e-13
        back = ScalarField.from_coefficients(grid, f.coefficients)
        assert np.max(np.abs(back.values - values)) <= 1e-12 * np.max(np.abs(values))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("resolution", [(16,), (16, 32)])
    def test_round_trip_property(self, seed, resolution):
        grid = TorusGrid(resolution)
        rng = np.random.default_rng(seed)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        back = ScalarField.from_coefficients(grid, f.coefficients)
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * f.max_abs

    def test_mean_is_zeroth_coefficient(self):
        grid = TorusGrid(32)
        f = random_band_limited(grid, 7) + 0.37
        assert abs(f.mean - f.coefficients.flat[0].real) <= 1e-12


class TestDerivative:
    def test_cosine(self):
        grid = TorusGrid(32)
        f = ScalarField.from_function(grid, lambda x: np.cos(2 * np.pi * x))
        x = grid.axis_points(0)
        expected = -2 * np.pi * np.sin(2 * np.pi * x)
        assert np.max(np.abs(f.derivative(0).values - expected)) <= 1e-12

    def test_constant(self):
        grid = TorusGrid(16)
        f = ScalarField.constant(grid, 3.5)
        assert f.derivative(0).max_abs == 0.0

    def test_mixed_mode_2d(self):
        grid = TorusGrid((32, 32))
        f = ScalarField.from_function(
            grid, lambda x, y: np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y)
        )
        x, y = grid.meshes()
        expected = -4 * np.pi * np.sin(2 * np.pi * x) * np.sin(4 * np.pi * y)
        assert np.max(np.abs(f.derivative(1).values - expected)) <= 1e-11

    def test_invalid_axis(self):
        grid = TorusGrid(16)
        f = ScalarField.constant(grid, 1.0)
        with pytest.raises(ValueError):
            f.derivative(1)

    def test_resolution_independent_on_band_limited_input(self):
        coarse = TorusGrid(32)
        fine = TorusGrid(64)
        modes = [[3, 0.7, -0.2], [5, -0.1, 0.4]]
        dc = ScalarField.from_modes(coarse, modes).derivative(0)
        df = ScalarField.from_modes(fine, modes).derivative(0)
        assert np.max(np.abs(dc.values - df.values[::2])) <= 1e-11

    @pytest.mark.parametrize("seed", range(3))
    def test_derivative_has_zero_mean(self, seed):
        grid = TorusGrid((16, 16))
        rng = np.random.default_rng(seed)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        assert abs(f.derivative(0).mean) <= 1e-12
        assert abs(f.derivative(1).mean) <= 1e-12

    def test_nyquist_mode_is_zeroed(self):
        grid = TorusGrid(16)
        x = grid.axis_points(0)
        f = ScalarField(grid, np.cos(16 * np.pi * x))  # pure Nyquist content
        assert f.derivative(0).max_abs <= 1e-13


class TestInterpolation:
    def test_band_limited_exactness(self):
        grid = TorusGrid(32)
        f = ScalarField.from_function(grid, lambda x: np.cos(2 * np.pi * x))
        got = f.sample([0.3])[0]
        assert abs(got - np.cos(0.6 * np.pi)) <= 1e-13

    def test_collocation(self):
        grid = TorusGrid(32)
        rng = np.random.default_rng(5)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        got = f.sample(grid.points())
        assert np.max(np.abs(got - f.values.ravel())) <= 1e-12 * f.max_abs

    def test_collocation_2d(self):
        grid = TorusGrid((16, 16))
        rng = np.random.default_rng(6)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        got = f.sample(grid.points())
        assert np.max(np.abs(got - f.values.ravel())) <= 1e-12 * f.max_abs

    def test_self_consistency_across_resolutions(self):
        # smooth periodic bump, resolved at N = 64: interpolants agree
        def bump(x):
            return np.exp(np.cos(2 * np.pi * x) * 3.0) / 10.0

        rng = np.random.default_rng(17)
        pts = rng.random(100)
        coarse = ScalarField.from_function(TorusGrid(64), bump).sample(pts)
        fine = ScalarField.from_function(TorusGrid(128), bump).sample(pts)
        assert np.max(np.abs(coarse - fine)) <= 1e-9

    def test_periodicity(self):
        grid = TorusGrid(32)
        f = random_band_limited(grid, 23)
        assert abs(f.sample([0.3])[0] - f.sample([1.3])[0]) <= 1e-12
        assert abs(f.sample([0.3])[0] - f.sample([-0.7])[0]) <= 1e-12

    @pytest.mark.parametrize("resolution", [(8,), (256,), (8, 8), (32, 16), (64, 64)])
    @pytest.mark.parametrize("value", [1.0, 0.7, -2.5, 0.0])
    def test_flat_field_samples_as_its_constant(self, monkeypatch, resolution, value):
        # the interpolation sum gives exactly the mean there, so skipping it
        # changes no bit; a field with any other mode still interpolates
        grid = TorusGrid(resolution)
        flat = ScalarField.constant(grid, value)
        points = np.random.default_rng(8).uniform(-1.0, 2.0, (57, grid.dim))
        want = sample_coefficients(grid, flat.coefficients[None], points)[:, 0]
        bumped = ScalarField.from_modes(grid, [[1] * grid.dim + [1e-3, 0.0]]) + value

        def unused(*args):
            raise AssertionError("a flat field was interpolated")

        monkeypatch.setattr(fields, "sample_coefficients", unused)
        got = flat.sample(points)
        assert got.shape == (57,) and np.array_equal(got, want)
        assert np.array_equal(flat.sample(points[:1]), want[:1])
        listed = ScalarField.from_modes(grid, [[0] * grid.dim + [value, 0.3]])  # sin 0 = 0
        assert np.array_equal(listed.sample(points), want)
        with pytest.raises(AssertionError, match="interpolated"):
            bumped.sample(points)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(resolution=st.sampled_from([(8,), (256,), (8, 8), (32, 16), (16, 32), (64, 64)]),
           count=st.sampled_from([1, 3]), m=st.sampled_from([1, 57]),
           axis=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_sum_on_white_noise(self, resolution, count, m, axis, seed):
        # white-noise values make the Nyquist and corner coefficients O(1),
        # which grid-point tests cannot see: their phases vanish there
        grid = TorusGrid(resolution)
        rng = np.random.default_rng(seed)
        fields = [ScalarField(grid, rng.standard_normal(grid.shape)) for _ in range(count)]
        coeffs = [f.coefficients for f in fields]
        if count == 3:
            coeffs[-1] = fields[-1].derivative(axis % grid.dim).coefficients
        stack = np.stack(coeffs)
        points = rng.uniform(-1.0, 2.0, (m, grid.dim))
        got = sample_coefficients(grid, stack, points)
        scale = np.abs(stack).reshape(count, -1).sum(axis=1)
        assert np.all(np.abs(got - sample_direct(grid, stack, points)) <= 1e-13 * scale)

    @pytest.mark.parametrize("resolution", [128, 256, 512])
    @pytest.mark.parametrize("count", [1, 2, 6])
    @pytest.mark.parametrize("m", [64, 1000, 4096])
    def test_one_d_sum_is_the_complex_gemm(self, resolution, count, m):
        grid, rng = TorusGrid(resolution), np.random.default_rng(7)
        stack = np.stack([ScalarField(grid, rng.standard_normal(resolution)).coefficients
                          for _ in range(count)])
        points = np.random.default_rng(m).uniform(-1.0, 2.0, (m, 1))
        want = sample_complex_gemm(grid, stack, points)
        got = sample_coefficients(grid, stack, points)
        assert got.shape == (m, count)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_d_sum_does_not_depend_on_the_blas_thread_count(self):
        # a complex GEMM gives different bits at 1 and 2 OpenBLAS threads on
        # many of these shapes; the real GEMM of the float view on none
        assert thread_dependent_shapes(THREAD_SHAPES) == ([], 90)

    def test_two_d_sum_does_not_depend_on_the_blas_thread_count(self):
        # the complex half-row GEMM gave different bits at 1 and 2 OpenBLAS
        # threads on every 256 x 256 shape, and the real GEMM with the table
        # as its left operand on 32 of these shapes, 32 x 16 to 256 x 256
        assert thread_dependent_shapes(THREAD_SHAPES_2D) == ([], 75)

    @pytest.mark.parametrize("shapes, total", [(THREAD_SHAPES, 90), (THREAD_SHAPES_2D, 75)],
                             ids=["1d", "2d"])
    def test_band_sum_does_not_depend_on_the_blas_thread_count(self, shapes, total):
        # mode lists with |k| <= 4 are summed on their band, 10 wavenumbers
        # per axis, so the GEMMs take other shapes than on white noise
        assert thread_dependent_shapes(shapes, band=4) == ([], total)

    @pytest.mark.parametrize("resolution", [(64, 64), (48, 48), (256, 256)])
    @pytest.mark.parametrize("count", [1, 2, 6])
    def test_two_d_sum_matches_the_complex_half_sum_at_many_points(self, resolution, count):
        # 4096 points run the GEMM's blocked paths, which the direct-sum
        # oracle cannot reach (its table would take 268 MB at 64 x 64)
        grid = TorusGrid(resolution)
        stack = white_noise_stack(grid, count, sum(resolution) + count)
        points = np.random.default_rng(count).uniform(-1.0, 2.0, (4096, 2))
        got = sample_coefficients(grid, stack, points)
        scale = np.abs(stack).reshape(count, -1).sum(axis=1)
        assert got.shape == (4096, count)
        assert np.all(np.abs(got - sample_complex_half_sum(grid, stack, points)) <= 1e-13 * scale)

    @pytest.mark.parametrize("n, bound", [(48, 1e-13), (64, 1e-13), (256, 1.5e-12)])
    def test_cos_sin_table_matches_one_cosine_per_mode(self, n, bound):
        # the recurrence loses the most where sin(2 pi x) is near 0; the
        # largest errors on these points are 4.4e-14, 7.1e-14 and 9.9e-13
        offsets = np.geomspace(1e-12, 0.1, 2000)
        near = (np.array([0.0, 0.25, 0.5, 0.75, 1.0])[:, None]
                + np.concatenate([-offsets, [0.0], offsets])).ravel() % 1.0
        x = np.concatenate([near, [1e-9], np.random.default_rng(n).random(4096)])
        phase = 2.0 * np.pi * ((np.arange(n // 2 + 1)[:, None] * x) % 1.0)
        got = fields._cos_sin(x, n)
        assert got.shape == (n + 2, x.size)
        assert np.max(np.abs(got - np.concatenate([np.cos(phase), np.sin(phase)]))) <= bound

    @pytest.mark.parametrize("resolution", [(8, 8), (32, 16), (16, 32)])
    def test_two_d_sum_needs_no_symmetry_of_the_coefficients(self, resolution):
        # the real fold takes Re sum_k c_k e(k . x) of any coefficients, as the
        # direct sum does; a real field's half sum would not
        grid, rng = TorusGrid(resolution), np.random.default_rng(11)
        stack = rng.standard_normal((3,) + resolution) + 1j * rng.standard_normal((3,) + resolution)
        points = rng.uniform(-1.0, 2.0, (57, 2))
        got = sample_coefficients(grid, stack, points)
        scale = np.abs(stack).reshape(3, -1).sum(axis=1)
        assert np.all(np.abs(got - sample_direct(grid, stack, points)) <= 1e-13 * scale)

    @pytest.mark.parametrize("shape", [(8, 8, 8), (8, 10, 12)], ids=["8^3", "8x10x12"])
    def test_three_axis_stacks_take_the_same_fold(self, shape):
        # every axis is folded alike, so a stack of three axes is summed
        # exactly as the direct sum does; no 3-d grid exists yet, and the
        # sampler reads only grid.dim
        rng = np.random.default_rng(sum(shape))
        stack = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
        points = rng.uniform(-1.0, 2.0, (57, 3))
        k = np.stack([axis.ravel() for axis in np.meshgrid(
            *[np.fft.fftfreq(n, 1.0 / n) for n in shape], indexing="ij")], axis=1)
        want = (np.exp(2j * np.pi * ((points % 1.0) @ k.T)) @ stack.reshape(2, -1).T).real
        got = sample_coefficients(SimpleNamespace(dim=3), stack, points)
        scale = np.abs(stack).reshape(2, -1).sum(axis=1)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def mode_entries(grid, seed, kmax, count=4):
    """``count`` random entries [k..., re, im] with |k_i| <= kmax on each
    axis (capped below N_i/2), amplitudes in [-1, 1], the last at k = 0."""
    rng = np.random.default_rng(seed)
    caps = [min(kmax, n // 2 - 1) for n in grid.resolution]
    entries = [[int(rng.integers(-cap, cap + 1)) for cap in caps] + list(rng.uniform(-1, 1, 2))
               for _ in range(count - 1)]
    return entries + [[0] * grid.dim + list(rng.uniform(-1, 1, 2))]


def mode_sum(grid, entries):
    """The direct sum of re cos(2 pi k.x) + im sin(2 pi k.x) at the grid
    points, each phase taken from the exact k.j mod N."""
    index = np.meshgrid(*[np.arange(n) for n in grid.resolution], indexing="ij")
    total = np.zeros(grid.shape)
    for *k, real, imag in entries:
        turns = sum((ki * j) % n / n for ki, j, n in zip(k, index, grid.resolution)) % 1.0
        total += real * np.cos(2 * np.pi * turns) + imag * np.sin(2 * np.pi * turns)
    return total


def sample_whole(monkeypatch, grid, stack, points):
    """`sample_coefficients` summing every wavenumber of the stack."""
    with monkeypatch.context() as patch:
        patch.setattr(fields, "_band", lambda rows: rows)
        return sample_coefficients(grid, stack, points)


MODE_GRIDS = [(8,), (64,), (256,), (8, 8), (64, 64), (32, 16), (48, 48)]


class TestModeListsAndBands:
    @pytest.mark.parametrize("resolution", MODE_GRIDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mode_list_coefficients_are_exact(self, resolution, seed):
        grid = TorusGrid(resolution)
        entries = mode_entries(grid, seed, kmax=max(resolution))
        f = ScalarField.from_modes(grid, entries)
        want = np.zeros(grid.shape, dtype=complex)
        for *k, real, imag in entries:
            if any(k):
                want[tuple(k)] += (real - 1j * imag) / 2
                want[tuple(-ki for ki in k)] += (real + 1j * imag) / 2
            else:
                want[tuple(k)] += real
        support = want != 0
        assert np.array_equal(f.coefficients, want) and not f.coefficients[~support].any()
        scale = sum(abs(real) + abs(imag) for *_, real, imag in entries)
        assert np.max(np.abs(f.values - mode_sum(grid, entries))) <= 1e-15 * scale
        # the density's 1 joins the exact coefficients at k = 0
        waves = [entry[:-2] + [0.1 * a for a in entry[-2:]] for entry in entries if any(entry[:-2])]
        want = ScalarField.from_modes(grid, waves).coefficients.copy()
        want.flat[0] += 1.0
        assert np.array_equal(VolumeDensity.from_modes(grid, waves).eta.coefficients, want)

    @pytest.mark.parametrize("resolution", [(8,), (256,), (8, 8), (32, 16)])
    def test_a_mode_the_grid_cannot_hold_is_refused(self, resolution):
        grid = TorusGrid(resolution)
        sizes = ", ".join(map(str, resolution))
        for axis, n in enumerate(resolution):
            for k in (n // 2, -(n // 2), n - 1):
                entry = [0] * grid.dim + [1.0, 0.5]
                entry[axis] = k
                named = rf"mode entry {re.escape(json.dumps(entry))} does not fit the grid: "
                with pytest.raises(ValueError, match=named + rf".*N = \[{sizes}\]"):
                    ScalarField.from_modes(grid, [[1] * grid.dim + [0.1, 0.0], entry])
            entry = [0] * grid.dim + [1.0, 0.5]
            entry[axis] = n // 2 - 1
            ScalarField.from_modes(grid, [entry])  # the largest |k| that fits

    @pytest.mark.parametrize("resolution", MODE_GRIDS)
    @pytest.mark.parametrize("kmax", [0, 1, 4])
    @pytest.mark.parametrize("m", [1, 57, 4096])
    def test_band_sum_is_the_whole_sum(self, monkeypatch, resolution, kmax, m):
        grid = TorusGrid(resolution)
        f = ScalarField.from_modes(grid, mode_entries(grid, kmax, kmax))
        g = ScalarField.from_modes(grid, mode_entries(grid, kmax + 10, kmax))
        stack = np.stack([f.coefficients, g.coefficients, f.derivative(grid.dim - 1).coefficients])
        points = np.random.default_rng(m).uniform(-1.0, 2.0, (m, grid.dim))
        got = sample_coefficients(grid, stack, points)
        scale = np.abs(stack).reshape(3, -1).sum(axis=1)
        assert got.shape == (m, 3)
        assert np.all(np.abs(got - sample_whole(monkeypatch, grid, stack, points)) <= 1e-15 * scale)
        cut = fields._band(stack).shape[1:]
        for n, length in zip(resolution, cut):
            assert length == (n if 4 * kmax >= n else 2 * min(kmax, n // 2 - 1) + 2)

    @pytest.mark.parametrize("resolution", [(8,), (10,), (64,), (256,), (64, 64), (32, 16)])
    def test_a_coefficient_at_a_quarter_of_n_keeps_the_axis_whole(self, resolution):
        grid = TorusGrid(resolution)
        for axis, n in enumerate(resolution):
            edge = -(-n // 4)  # the smallest |k| >= n/4
            for k, length in ((edge, n), (-edge, n), (edge - 1, 2 * edge)):
                stack = np.zeros((2,) + grid.shape, dtype=complex)
                index = [0] * grid.dim
                index[axis] = k
                stack[(1, *index)] = 1.0
                cut = fields._band(stack).shape[1:]
                assert cut[axis] == length
                assert all(size == 2 for other, size in enumerate(cut) if other != axis)

    @pytest.mark.parametrize("resolution", [64, 256])
    def test_a_factor_stack_with_a_zero_nyquist_is_not_cut(self, resolution):
        grid = TorusGrid(resolution)
        X = VectorFieldT([ScalarField.from_modes(grid, [[1, 0.0, 0.1], [2, 0.03, 0.0]])])
        stack = np.array(flow.flow_map(X, 0.5).factors[0].coefficients)
        stack[:, resolution // 2] = 0.0
        assert fields._band(stack) is stack


class TestArithmetic:
    def test_mean_of_cosine(self):
        grid = TorusGrid(32)
        f = ScalarField.from_function(grid, lambda x: np.cos(2 * np.pi * x))
        assert abs(f.mean) <= 1e-14

    def test_quotient_of_field_by_itself(self):
        grid = TorusGrid(32)
        f = ScalarField.from_function(grid, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
        q = f / f
        assert np.max(np.abs(q.values - 1.0)) <= 1e-14

    def test_quotient_guard_reports_minimum_and_location(self):
        grid = TorusGrid(16)
        f = ScalarField.constant(grid, 1.0)
        g = ScalarField.from_function(grid, lambda x: np.cos(2 * np.pi * x))
        with pytest.raises(PositivityError) as err:
            f / g
        assert err.value.min_value == pytest.approx(-1.0)
        assert err.value.location == (0.5,)
        assert "-1" in str(err.value) and "0.5" in str(err.value)

    def test_product_to_sum_identity(self):
        # cos(2 pi a x) cos(2 pi b x) = (cos(2 pi (a+b) x) + cos(2 pi (a-b) x)) / 2
        grid = TorusGrid(32)
        a, b = 3, 2
        fa = ScalarField.from_modes(grid, [[a, 1.0, 0.0]])
        fb = ScalarField.from_modes(grid, [[b, 1.0, 0.0]])
        expected = ScalarField.from_modes(grid, [[a + b, 0.5, 0.0], [a - b, 0.5, 0.0]])
        prod = fa * fb
        assert np.max(np.abs(prod.values - expected.values)) <= 1e-14


class TestVectorAndDensity:
    def test_density_gates(self):
        grid = TorusGrid(16)
        with pytest.raises(PositivityError):
            VolumeDensity(ScalarField.from_function(grid, lambda x: np.cos(2 * np.pi * x)))
        with pytest.raises(NormalizationError):
            VolumeDensity(ScalarField.constant(grid, 1.5))
        VolumeDensity.from_modes(grid, [[1, 0.5, 0.0]])  # fine

    def test_density_gates_refuse_a_nan_value(self):
        # a NaN compares False with anything, so each gate asks for what must hold
        grid = TorusGrid((16, 16))
        values = np.ones(grid.shape)
        values[3, 5] = np.nan
        with pytest.raises(PositivityError,
                           match=r"a NaN value at grid point \(0\.1875, 0\.3125\)"):
            VolumeDensity(ScalarField(grid, values))
        with pytest.raises(PositivityError, match="a NaN value"):
            ScalarField.constant(grid, 1.0) / ScalarField(grid, values)
        with pytest.raises(NormalizationError, match="mean is inf"):
            VolumeDensity(ScalarField(grid, np.where(np.isnan(values), np.inf, values)))

    def test_gradient_divergence_roundtrip(self):
        grid = TorusGrid((32, 32))
        u = random_band_limited(grid, 9, max_mode=4)
        lap = divergence(gradient(u))
        direct = ScalarField.from_coefficients(
            grid, u.coefficients * grid.laplacian_symbol()
        )
        assert np.max(np.abs(lap.values - direct.values)) <= 1e-10

    def test_vector_field_sampling(self):
        grid = TorusGrid((16, 16))
        v = VectorFieldT(
            [random_band_limited(grid, 1, max_mode=3), random_band_limited(grid, 2, max_mode=3)]
        )
        vals = v.sample(grid.points())
        assert np.allclose(vals, v.values_matrix(), atol=1e-12)


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        grid = TorusGrid((8, 16))
        rng = np.random.default_rng(1)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        obj = field_to_json(f)
        assert obj["dim"] == 2 and obj["resolution"] == [8, 16]
        back = field_from_json(json.loads(json.dumps(obj)))
        assert np.array_equal(back.values, f.values)
        save_field(f, tmp_path / "f.json")
        assert np.array_equal(load_field(tmp_path / "f.json").values, f.values)

    def test_csv_layout(self):
        grid = TorusGrid(8)
        f = ScalarField(grid, np.arange(8, dtype=float))
        lines = field_to_csv(f).strip().split("\n")
        assert lines[0] == "x1,value"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        # 17 significant digits survive a parse round trip
        g = ScalarField(TorusGrid(8), np.full(8, 1.0 / 3.0))
        row = field_to_csv(g).strip().split("\n")[1]
        assert float(row.split(",")[1]) == 1.0 / 3.0

    def test_rejects_malformed_json(self):
        with pytest.raises(ValueError):
            field_from_json({"dim": 1, "resolution": [8]})
