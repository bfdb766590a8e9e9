"""Grid, quadrature and stencil behavior, including the exact conservation identities."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import chemfv.grid
from chemfv import (CorruptionError, DomainError, Grid, ScalarField, constant_field,
                    cosine_field, extend_neumann, field_from_function, gradient_cells,
                    hessian, integrate, laplacian, lp_norm, random_smooth_field,
                    read_field, write_field)
from chemfv.grid import FieldStack, _spacing_divisor, random_smooth_stack


def _mirror_face_gradients(f):
    """Per-axis face differences (f_R - f_L)/h of the mirror-extended values,
    boundary faces included: the face gradients the zero-flux closure implies."""
    padded = extend_neumann(f)
    out = []
    for axis, h in enumerate(f.grid.spacing):
        inner = tuple(slice(None) if a == axis else slice(1, -1) for a in range(f.grid.dim))
        out.append(np.diff(padded[inner], axis=axis) / h)
    return tuple(out)


class TestGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            Grid.line(3, 1.0)
        with pytest.raises(DomainError):
            Grid.line(8, 0.0)
        with pytest.raises(DomainError):
            Grid((4, 4, 4), (1.0, 1.0, 1.0))
        # a cell count must be an integer type, as constant_field's np.full needs
        for cells in [(4.0,), (8, 8.0), (np.float64(8),)]:
            with pytest.raises(DomainError, match="cell count must be an integer"):
                Grid(cells, (1.0,) * len(cells))
        g = Grid.line(np.int64(8), 1.0)
        assert constant_field(g, 1.0).values.shape == (8,)

    @pytest.mark.parametrize("cells, extents", [
        ((8, 8), (1e200, 1e200)),      # both volumes overflow
        ((4, 4), (1e154, 1.9e154)),    # the domain volume alone overflows
    ])
    def test_volumes_must_be_finite(self, cells, extents):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # rejected without a numpy overflow warning
            with pytest.raises(DomainError, match="domain and cell volumes must be finite"):
                Grid(cells, extents)
        assert math.isfinite(Grid(cells, (1e154, 1e154)).volume)

    def test_geometry(self):
        g = Grid.rect(8, 4, 2.0, 1.0)
        assert g.dim == 2
        assert g.spacing == (0.25, 0.25)
        assert g.cell_volume == pytest.approx(0.0625)
        assert g.volume == 2.0
        assert g.axis_centers(0)[0] == 0.125

    def test_spacing_and_cell_volume_are_computed_once(self):
        g = Grid.rect(8, 6, 2.0, 0.3)
        assert g.spacing is g.spacing
        assert g.cell_volume == float(np.prod((2.0 / 8, 0.3 / 6)))
        twin = Grid.rect(8, 6, 2.0, 0.3)
        assert g == twin and hash(g) == hash(twin)
        assert g != Grid.rect(8, 6, 2.0, 0.4)

    def test_field_shape_mismatch(self):
        with pytest.raises(DomainError):
            ScalarField(Grid.line(8, 1.0), np.zeros(7))

    def test_stack_shape_mismatch(self):
        g = Grid.rect(8, 6, 1.0, 1.0)
        for shape in [(8, 6), (3, 6, 8), (2, 1, 8, 6)]:
            with pytest.raises(DomainError):
                FieldStack(g, np.zeros(shape))
        assert FieldStack(g, np.zeros((3, 8, 6))).values.shape == (3, 8, 6)


class TestIntegrate:
    def test_constant(self):
        g = Grid.line(16, 2.0)
        assert integrate(constant_field(g, 3.0)) == pytest.approx(6.0, rel=1e-15)

    def test_zero(self):
        assert integrate(constant_field(Grid.line(8, 1.0), 0.0)) == 0.0

    def test_linear_exact(self):
        # midpoint quadrature is exact for linear integrands
        g = Grid.line(128, 1.0)
        f = field_from_function(g, lambda x: x)
        assert integrate(f) == 0.5

    def test_nonfinite_rejected(self):
        g = Grid.line(8, 1.0)
        f = constant_field(g, 1.0)
        f.values[3] = math.nan
        with pytest.raises(CorruptionError):
            integrate(f)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_each_nonfinite_value_rejected(self, bad):
        g = Grid.line(8, 1.0)
        f = constant_field(g, 1.0)
        f.values[3] = bad
        with pytest.raises(CorruptionError):
            integrate(f)
        stack = np.ones((3,) + g.shape)
        stack[1, 3] = bad
        with pytest.raises(CorruptionError):
            integrate(FieldStack(g, stack))

    def test_finite_values_whose_sum_overflows(self):
        g = Grid.line(4, 4.0)
        with np.errstate(over="ignore"):
            assert integrate(constant_field(g, 1e308)) == math.inf
            assert integrate(FieldStack(g, np.full((2, 4), 1e308))) == [math.inf, math.inf]


class TestLpNorm:
    def test_constant(self):
        g = Grid.line(16, 1.0)
        assert lp_norm(constant_field(g, 2.0), 2.0) == pytest.approx(2.0, rel=1e-15)
        assert lp_norm(constant_field(g, 0.0), 7.0) == 0.0

    def test_indicator(self):
        g = Grid.line(16, 1.0)
        values = np.zeros(16)
        values[:8] = 1.0
        assert lp_norm(ScalarField(g, values), 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_sup_norm(self):
        g = Grid.line(8, 1.0)
        values = np.array([0.0, -3.0, 1.0, 0.5, 0.0, 0.0, 0.0, 2.0])
        assert lp_norm(ScalarField(g, values), math.inf) == 3.0

    @pytest.mark.parametrize("p", [0.5, float("nan")])
    def test_p_below_one_rejected(self, p):
        with pytest.raises(DomainError):
            lp_norm(constant_field(Grid.line(8, 1.0), 1.0), p)


class TestNeumannExtension:
    def test_mirror_values(self):
        g = Grid.line(4, 1.0)
        f = ScalarField(g, np.array([1.0, 2.0, 3.0, 4.0]))
        padded = extend_neumann(f)
        assert padded[0] == 1.0 and padded[-1] == 4.0

    def test_constant_ghosts(self):
        g = Grid.rect(4, 4, 1.0, 1.0)
        padded = extend_neumann(constant_field(g, 5.0))
        assert np.all(padded == 5.0)

    def test_boundary_face_gradient_is_zero(self):
        g = Grid.line(32, 1.0)
        f = field_from_function(g, lambda x: x)
        gx = _mirror_face_gradients(f)[0]
        assert gx[0] == 0.0 and gx[-1] == 0.0
        assert np.allclose(gx[1:-1], 1.0, rtol=0, atol=1e-13)


class TestGradients:
    def test_constant_is_zero(self):
        g = Grid.rect(8, 8, 1.0, 1.0)
        f = constant_field(g, 2.5)
        for arr in gradient_cells(f):
            assert np.all(arr == 0.0)

    def test_linear_interior_exact(self):
        g = Grid.line(64, 1.0)
        f = field_from_function(g, lambda x: x)
        gc = gradient_cells(f)[0]
        assert np.allclose(gc[1:-1], 1.0, rtol=0, atol=1e-12)

    def test_quadratic_central_difference(self):
        # central differences are exact for quadratics in the interior;
        # the checked error bound is the generic 2 h^2 one
        g = Grid.line(64, 1.0)
        f = field_from_function(g, lambda x: x**2)
        gc = gradient_cells(f)[0]
        x = g.axis_centers(0)
        h = g.spacing[0]
        err = np.abs(gc[1:-1] - 2.0 * x[1:-1])
        assert err.max() < 2.0 * h**2


class TestLaplacian:
    def test_quadratic_interior(self):
        g = Grid.line(32, 1.0)
        f = field_from_function(g, lambda x: x**2)
        lap = laplacian(f).values
        assert np.allclose(lap[1:-1], 2.0, rtol=0, atol=1e-9)

    def test_constant_exact_zero(self):
        g = Grid.rect(8, 8, 1.0, 1.0)
        assert np.all(laplacian(constant_field(g, 4.0)).values == 0.0)

    def test_2d_paraboloid_interior(self):
        g = Grid.rect(16, 16, 1.0, 1.0)
        f = field_from_function(g, lambda x, y: x**2 + y**2)
        lap = laplacian(f).values
        assert np.allclose(lap[1:-1, 1:-1], 4.0, rtol=0, atol=1e-9)


class TestHessian:
    def test_bilinear_cross(self):
        g = Grid.rect(16, 16, 1.0, 1.0)
        f = field_from_function(g, lambda x, y: x * y)
        hess = hessian(f)
        assert np.allclose(hess[0, 1][1:-1, 1:-1], 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(hess[0, 1], hess[1, 0])

    def test_constant_zero(self):
        g = Grid.rect(8, 8, 1.0, 1.0)
        assert np.all(hessian(constant_field(g, 3.0)) == 0.0)

    def test_pure_x_squared(self):
        g = Grid.rect(16, 16, 1.0, 1.0)
        f = field_from_function(g, lambda x, y: x**2 + 0.0 * y)
        hess = hessian(f)
        interior = (slice(1, -1), slice(1, -1))
        assert np.allclose(hess[0, 0][interior], 2.0, rtol=0, atol=1e-9)
        assert np.allclose(hess[1, 1][interior], 0.0, atol=1e-12)
        assert np.allclose(hess[0, 1][interior], 0.0, atol=1e-12)

    @pytest.mark.parametrize("grid, calls", [(Grid.rect(6, 5, 1.0, 0.5), 1),
                                             (Grid.line(6, 1.0), 0)], ids=str)
    def test_one_padded_copy_per_2d_call(self, monkeypatch, grid, calls):
        # the 2D cross term reads the one padded copy that extend_neumann
        # returns; the 1D Hessian pads nothing
        seen = []
        real = chemfv.grid.extend_neumann
        monkeypatch.setattr(chemfv.grid, "extend_neumann",
                            lambda f: seen.append(f) or real(f))
        f = random_smooth_field(grid, 3, 4)
        stack = FieldStack(grid, np.stack([f.values, -f.values, 2.0 * f.values]))
        for field in (f, stack):
            seen.clear()
            hessian(field)
            assert [g is field for g in seen] == [True] * calls


class TestRandomSmoothField:
    def test_deterministic(self):
        g = Grid.rect(16, 16, 1.0, 1.0)
        f1 = random_smooth_field(g, 42, 8)
        f2 = random_smooth_field(g, 42, 8)
        assert np.array_equal(f1.values, f2.values)
        f3 = random_smooth_field(g, 43, 8)
        assert not np.array_equal(f1.values, f3.values)

    def test_num_modes_validated(self):
        with pytest.raises(DomainError):
            random_smooth_field(Grid.line(8, 1.0), 0, 0)

    def test_zero_coefficient_gives_zero_field(self):
        g = Grid.line(16, 1.0)
        f = cosine_field(g, [(1,)], [0.0])
        assert np.all(f.values == 0.0)

    def test_single_mode_matches_analytic_gradient(self):
        # interior face gradient of cos(pi x) vs -pi sin(pi x) at face centers
        g = Grid.line(64, 1.0)
        f = cosine_field(g, [(1,)], [1.0])
        gx = _mirror_face_gradients(f)[0]
        h = g.spacing[0]
        faces = np.arange(1, 64) * h
        analytic = -math.pi * np.sin(math.pi * faces)
        assert np.abs(gx[1:-1] - analytic).max() < 2.0 * h**2 * math.pi**3
        # the analytic normal derivative vanishes at both walls, as does the
        # discrete boundary face value
        assert gx[0] == 0.0 and gx[-1] == 0.0

    def test_random_field_boundary_faces(self):
        g = Grid.rect(32, 32, 1.0, 2.0)
        f = random_smooth_field(g, 5, 6)
        gx, gy = _mirror_face_gradients(f)
        assert np.all(gx[0, :] == 0.0) and np.all(gx[-1, :] == 0.0)
        assert np.all(gy[:, 0] == 0.0) and np.all(gy[:, -1] == 0.0)


class TestOperatorIdentities:
    @pytest.mark.parametrize("grid", [Grid.line(64, 1.5), Grid.rect(24, 16, 1.0, 2.0)])
    def test_laplacian_integrates_to_zero(self, grid):
        for seed in range(20):
            f = random_smooth_field(grid, seed, 8)
            total = integrate(laplacian(f))
            assert abs(total) <= 1e-12 * max(1.0, lp_norm(f, 2.0))

    @pytest.mark.parametrize("grid", [Grid.line(32, 1.0), Grid.rect(16, 12, 1.0, 0.5)])
    def test_trace_of_hessian_is_laplacian(self, grid):
        for seed in range(10):
            f = random_smooth_field(grid, seed, 6)
            hess = hessian(f)
            trace = sum(hess[a, a] for a in range(grid.dim))
            lap = laplacian(f).values
            assert np.abs(trace - lap).max() <= 1e-12 * max(1.0, np.abs(lap).max())

    def test_second_order_convergence(self):
        errors = []
        for nx in (32, 64, 128):
            g = Grid.line(nx, 1.0)
            f = cosine_field(g, [(1,)], [1.0])
            lap = laplacian(f).values
            exact = -math.pi**2 * f.values
            errors.append(np.abs(lap - exact)[1:-1].max())
        assert errors[0] / errors[1] >= 3.5
        assert errors[1] / errors[2] >= 3.5


class TestFieldDump:
    def test_roundtrip_1d(self, tmp_path):
        g = Grid.line(8, 2.0)
        f = random_smooth_field(g, 1, 4)
        path = tmp_path / "field.csv"
        write_field(f, path)
        header = path.read_text().splitlines()[0]
        assert header == "1,8,2.0"
        back = read_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_roundtrip_2d(self, tmp_path):
        g = Grid.rect(6, 4, 1.0, 0.5)
        f = random_smooth_field(g, 2, 4)
        path = tmp_path / "field.csv"
        write_field(f, path)
        assert path.read_text().splitlines()[0] == "2,6,4,1.0,0.5"
        back = read_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)


# Reference stencils built on np.pad, as the operators were first written.  The
# pad-free operators must reproduce them byte for byte, signed zeros included.
def _ref_extend_neumann(f):
    return np.pad(f.values, 1, mode="edge")


def _ref_with_zero_boundary(interior_faces, axis):
    pad = [(0, 0)] * interior_faces.ndim
    pad[axis] = (1, 1)
    return np.pad(interior_faces, pad)


def _ref_div_axis(full_faces, axis, h):
    return np.diff(full_faces, axis=axis) / h


def _ref_gradient_faces(f):
    return tuple(_ref_with_zero_boundary(np.diff(f.values, axis=axis) / h, axis)
                 for axis, h in enumerate(f.grid.spacing))


def _ref_gradient_cells(f):
    padded = _ref_extend_neumann(f)
    out = []
    for axis, h in enumerate(f.grid.spacing):
        lo = [slice(1, -1)] * padded.ndim
        hi = [slice(1, -1)] * padded.ndim
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        out.append((padded[tuple(hi)] - padded[tuple(lo)]) / (2.0 * h))
    return tuple(out)


def _ref_laplacian(f):
    grads = _ref_gradient_faces(f)
    total = _ref_div_axis(grads[0], 0, f.grid.spacing[0])
    for axis in range(1, f.grid.dim):
        total = total + _ref_div_axis(grads[axis], axis, f.grid.spacing[axis])
    return total


def _ref_hessian(f):
    grid = f.grid
    h = grid.spacing
    out = np.empty((grid.dim, grid.dim) + grid.shape)
    grads = _ref_gradient_faces(f)
    for axis in range(grid.dim):
        out[axis, axis] = _ref_div_axis(grads[axis], axis, h[axis])
    if grid.dim == 2:
        p = _ref_extend_neumann(f)
        cross = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4.0 * h[0] * h[1])
        out[0, 1] = cross
        out[1, 0] = cross
    return out


def _ref_cosine_field(grid, modes, coeffs):
    modes = np.atleast_2d(np.asarray(modes, dtype=int))
    coeffs = np.asarray(coeffs, dtype=float)
    centers = grid.centers()
    values = np.zeros(grid.shape)
    for k_vec, c in zip(modes, coeffs):
        term = np.ones(grid.shape)
        for axis in range(grid.dim):
            term = term * np.cos(k_vec[axis] * math.pi * centers[axis] / grid.extents[axis])
        values += c * term
    return values


def _ref_random_smooth_field(grid, seed, num_modes):
    rng = np.random.default_rng(seed)
    modes = rng.integers(0, 5, size=(num_modes, grid.dim))
    raw = rng.standard_normal(num_modes)
    return _ref_cosine_field(grid, modes, raw / (1.0 + (modes**2).sum(axis=1)))


def _assert_same_bytes(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


def _assert_operators_match_reference(f):
    _assert_same_bytes(extend_neumann(f), _ref_extend_neumann(f))
    for new, ref in zip(gradient_cells(f), _ref_gradient_cells(f), strict=True):
        _assert_same_bytes(new, ref)
    _assert_same_bytes(laplacian(f).values, _ref_laplacian(f))
    _assert_same_bytes(hessian(f), _ref_hessian(f))


PARITY_GRIDS = [Grid.line(4, 1.0), Grid.line(7, 2.5), Grid.line(64, 1.5),
                Grid.rect(4, 4, 1.0, 1.0), Grid.rect(24, 16, 1.0, 2.0),
                Grid.rect(5, 9, 0.3, 3.7), Grid.rect(64, 64, 1.0, 1.0)]


class TestPadFreeByteParity:
    @pytest.mark.parametrize("grid", PARITY_GRIDS, ids=str)
    @pytest.mark.parametrize("kind", ["zero", "negative-zero", "integer", "random"])
    def test_operators(self, grid, kind):
        rng = np.random.default_rng(11)
        values = {
            "zero": lambda: np.zeros(grid.shape),
            "negative-zero": lambda: np.full(grid.shape, -0.0),
            "integer": lambda: rng.integers(-5, 6, size=grid.shape).astype(float),
            "random": lambda: rng.standard_normal(grid.shape),
        }[kind]
        for _ in range(3):
            _assert_operators_match_reference(ScalarField(grid, values()))

    @pytest.mark.parametrize("grid", PARITY_GRIDS, ids=str)
    def test_cosine_field(self, grid):
        rng = np.random.default_rng(3)
        for num_modes in (1, 2, 8):
            modes = rng.integers(0, 7, size=(num_modes, grid.dim))
            coeffs = rng.standard_normal(num_modes)
            _assert_same_bytes(cosine_field(grid, modes, coeffs).values,
                               _ref_cosine_field(grid, modes, coeffs))
        # a zero coefficient and a constant mode
        modes, coeffs = [(0,) * grid.dim, (1,) * grid.dim], [0.0, -0.0]
        _assert_same_bytes(cosine_field(grid, modes, coeffs).values,
                           _ref_cosine_field(grid, modes, coeffs))
        # negative, repeated and large mode indices, in no order
        modes = [(40,) * grid.dim, (-3,) * grid.dim, (1000, -3)[:grid.dim], (40,) * grid.dim]
        coeffs = [0.5, -1.25, 2.0, 0.75]
        _assert_same_bytes(cosine_field(grid, modes, coeffs).values,
                           _ref_cosine_field(grid, modes, coeffs))

    @pytest.mark.parametrize("grid", [Grid.line(32, 1.5), Grid.rect(16, 12, 1.0, 0.5),
                                      Grid.rect(64, 64, 1.0, 1.0)], ids=str)
    def test_random_smooth_fields_over_50_seeds(self, grid):
        for seed in range(50):
            f = random_smooth_field(grid, (7, seed), 8)
            _assert_same_bytes(f.values, _ref_random_smooth_field(grid, (7, seed), 8))
            _assert_operators_match_reference(f)


def _along(axis, index):
    return (Ellipsis, index) + (slice(None),) * (-1 - axis)


# The padded copy and the second difference as they were written before the
# second difference took offset views of the flattened fields: a copy with
# its ghosts filled by hand, and np.diff along the axis.
def _pad_neumann(values, dim):
    out = np.empty(values.shape[:-dim] + tuple(n + 2 for n in values.shape[-dim:]))
    out[(Ellipsis,) + (slice(1, -1),) * dim] = values
    for axis in range(-dim, 0):
        out[_along(axis, 0)] = out[_along(axis, 1)]
        out[_along(axis, -1)] = out[_along(axis, -2)]
    return out


def _diff_second_difference(values, axis, h):
    g = np.diff(values, axis=axis) / h
    out = np.empty(values.shape)
    np.subtract(g[_along(axis, slice(1, None))], g[_along(axis, slice(None, -1))],
                out=out[_along(axis, slice(1, -1))])
    first, last = _along(axis, slice(0, 1)), _along(axis, slice(-1, None))
    out[first] = g[first]
    np.subtract(0.0, g[last], out=out[last])
    out /= h
    return out


def _diff_laplacian(f):
    dim, h = f.grid.dim, f.grid.spacing
    total = _diff_second_difference(f.values, -dim, h[0])
    for axis in range(1, dim):
        total += _diff_second_difference(f.values, axis - dim, h[axis])
    return total


def _diff_hessian(f):
    values, dim, h = f.values, f.grid.dim, f.grid.spacing
    out = np.empty((dim, dim) + values.shape)
    for axis in range(dim):
        out[axis, axis] = _diff_second_difference(values, axis - dim, h[axis])
    if dim == 2:
        p = _pad_neumann(values, 2)
        cross = (p[..., 2:, 2:] - p[..., 2:, :-2] - p[..., :-2, 2:] + p[..., :-2, :-2]) / (
            4.0 * h[0] * h[1])
        out[0, 1] = cross
        out[1, 0] = cross
    return out


# gradient_cells as it was written on the mirror-padded copy, before it took
# its differences as offset views of the flattened fields.
def _padded_gradient_cells(f):
    dim = f.grid.dim
    padded = _pad_neumann(f.values, dim)
    out = []
    for axis, h in enumerate(f.grid.spacing):
        lo = [Ellipsis] + [slice(1, -1)] * dim
        hi = list(lo)
        lo[1 + axis] = slice(0, -2)
        hi[1 + axis] = slice(2, None)
        out.append((padded[tuple(hi)] - padded[tuple(lo)]) / (2.0 * h))
    return tuple(out)


FLAT_GRIDS = [Grid.line(4, 1.0), Grid.line(9, 2.5), Grid.rect(4, 4, 1.0, 1.0),
              Grid.rect(4, 13, 0.3, 3.7), Grid.rect(13, 4, 1.0, 0.5),
              Grid.rect(24, 16, 1.0, 2.0), Grid.rect(64, 64, 1.0, 1.0)]


def _flat_case(grid, kind, lead):
    rng = np.random.default_rng(13)
    shape = grid.shape if lead is None else lead + grid.shape
    values = {
        "random": lambda: rng.standard_normal(shape),
        "negative-zero": lambda: np.where(rng.random(shape) < 0.5, -0.0, 0.0),
        "integer": lambda: rng.integers(-5, 6, size=shape).astype(float),
        "non-finite": lambda: rng.choice([1.5, -0.0, math.inf, -math.inf, math.nan], shape),
    }[kind]()
    return ScalarField(grid, values) if lead is None else FieldStack(grid, values)


class TestFlatGradientParity:
    @pytest.mark.parametrize("grid", FLAT_GRIDS, ids=str)
    @pytest.mark.parametrize("kind", ["random", "negative-zero", "integer", "non-finite"])
    @pytest.mark.parametrize("lead", [None, (1,), (5,)], ids=str)
    def test_matches_the_padded_stencil(self, grid, kind, lead):
        f = _flat_case(grid, kind, lead)
        with np.errstate(invalid="ignore"):
            pairs = list(zip(gradient_cells(f), _padded_gradient_cells(f), strict=True))
        for new, ref in pairs:
            _assert_same_bytes(new, ref)

    @pytest.mark.parametrize("grid", FLAT_GRIDS, ids=str)
    @pytest.mark.parametrize("kind", ["random", "negative-zero", "integer", "non-finite"])
    @pytest.mark.parametrize("lead", [None, (1,), (5,)], ids=str)
    def test_second_differences_match_np_diff(self, grid, kind, lead):
        f = _flat_case(grid, kind, lead)
        with np.errstate(invalid="ignore"):
            grads = gradient_cells(f)
            assert isinstance(grads, np.ndarray)
            _assert_same_bytes(grads, np.stack(_padded_gradient_cells(f)))
            _assert_same_bytes(hessian(f), _diff_hessian(f))
            _assert_same_bytes(extend_neumann(f), _pad_neumann(f.values, grid.dim))
            if lead is None:
                _assert_same_bytes(laplacian(f).values, _diff_laplacian(f))


class TestJoiningPairs:
    # The flat differences also compute the pairs that join one line of an
    # axis to the next (a row's last cell to the next row's first on the last
    # axis of a 2D grid, and a field's last cells to the next field's first in
    # a stack), then overwrite those cells.  An overflow on such a pair alone
    # warns where the line-by-line stencils are silent; the results keep their
    # bytes.  This pins that known difference.  The values are 0 but for +1e308
    # in each line's last cell and -1e308 in its cell ``low``: only the joining
    # pairs span 2e308.
    @pytest.mark.parametrize("grid, lead, name, low", [
        (Grid.rect(9, 11, 9.0, 11.0), (), "gradient_cells", 1),
        (Grid.rect(9, 11, 9.0, 11.0), (), "hessian", 0),
        (Grid.rect(9, 11, 9.0, 11.0), (), "laplacian", 0),
        (Grid.line(9, 9.0), (3,), "gradient_cells", 1),
        (Grid.line(9, 9.0), (3,), "hessian", 0),
    ], ids=str)
    def test_joining_pair_overflow_warns_but_leaves_no_trace(self, grid, lead, name, low):
        values = np.zeros(lead + grid.shape)
        values[..., -1], values[..., low] = 1e308, -1e308
        f = FieldStack(grid, values) if lead else ScalarField(grid, values)
        operator, reference = {
            "gradient_cells": (gradient_cells, lambda f: np.stack(_padded_gradient_cells(f))),
            "hessian": (hessian, _diff_hessian),
            "laplacian": (lambda f: laplacian(f).values, _diff_laplacian),
        }[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = reference(f)
        with pytest.warns(RuntimeWarning, match="overflow encountered in subtract") as record:
            result = operator(f)
        assert len(record) == 1
        _assert_same_bytes(result, expected)
        assert np.isfinite(result).all()


class TestStackedOperators:
    # A stack of fields with leading axes must give each field the bytes that
    # the per-field operator gives it alone.
    @pytest.mark.parametrize("grid", PARITY_GRIDS, ids=str)
    @pytest.mark.parametrize("kind", ["negative-zero", "integer", "random"])
    def test_operators_on_a_stack(self, grid, kind):
        rng = np.random.default_rng(5)
        lead = (2, 3)
        values = {
            "negative-zero": lambda: np.full(lead + grid.shape, -0.0),
            "integer": lambda: rng.integers(-5, 6, size=lead + grid.shape).astype(float),
            "random": lambda: rng.standard_normal(lead + grid.shape),
        }[kind]()
        stack = FieldStack(grid, values.reshape((-1,) + grid.shape))
        hess = hessian(stack).reshape((grid.dim, grid.dim) + values.shape)
        grads = [g.reshape(values.shape) for g in gradient_cells(stack)]
        sums = integrate(stack)
        for k, index in enumerate(np.ndindex(lead)):
            f = ScalarField(grid, values[index].copy())
            _assert_same_bytes(hess[(slice(None), slice(None)) + index], hessian(f))
            for new, ref in zip((g[index] for g in grads), gradient_cells(f), strict=True):
                _assert_same_bytes(new, ref)
            assert sums[k] == integrate(f)

    @pytest.mark.parametrize("grid", [Grid.line(32, 1.5), Grid.rect(16, 12, 1.0, 0.5)], ids=str)
    def test_random_smooth_stack(self, grid):
        seeds = [(7, seed) for seed in range(6)]
        stack = random_smooth_stack(grid, seeds, 8)
        assert stack.values.shape == (6,) + grid.shape
        for values, seed in zip(stack.values, seeds):
            _assert_same_bytes(values, _ref_random_smooth_field(grid, seed, 8))


class TestSpacingDivisor:
    # x / h as a multiply by 1/h where h is a power of two with a finite
    # reciprocal; the bits of np.divide in every case.
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, math.inf, -math.inf,
               math.nan, -math.nan, 1e308, -1e308, 1.0, -3.0, 0.1]

    @pytest.mark.parametrize("h", [1.0, 0.5, 2.0**-7, 2.0**1000, 2.0**1023, 2.0**-1023,
                                   2.0**-1030, 0.1, 1.0 / 3.0, 3.0, 1.3, 5e-324])
    def test_matches_divide(self, h):
        rng = np.random.default_rng(47)
        x = np.concatenate([np.array(self.SPECIAL),
                            rng.standard_normal(2000) * 10.0 ** rng.integers(-323, 308, 2000)])
        scale, by = _spacing_divisor(h)
        assert (scale is np.multiply) == (math.frexp(h)[0] == 0.5 and 1.0 / h < math.inf)
        with np.errstate(all="ignore"):
            _assert_same_bytes(scale(x, by), np.divide(x, h))

    @pytest.mark.parametrize("h", [2.0**-1030, 5e-324])
    def test_subnormal_power_of_two_whose_reciprocal_overflows_divides(self, h):
        assert math.frexp(h)[0] == 0.5 and 1.0 / h == math.inf
        assert _spacing_divisor(h) == (np.divide, h)
