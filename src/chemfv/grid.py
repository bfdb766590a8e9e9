"""Uniform cell-centered Cartesian grids and their discrete operators.

Fields live at cell centers x_i = (i + 1/2) h on a rectangular domain.  Every
derivative stencil closes the boundary with mirror ghost cells, which makes
the zero-flux (homogeneous Neumann) condition exact: the normal difference
across any boundary face is identically zero, so divergence-form operators
conserve their integrand to round-off and ``integrate(laplacian(f)) == 0``
holds for arbitrary fields.

The ghosts are implicit.  The second differences and ``gradient_cells`` take
an axis of flat stride st as the offset views ``flat[st:]``, ``flat[:-st]``
of the values read as one flat array, then write each axis's first and last
cells, where the pairs that join one line of the axis to the next land, from
the zero boundary face (never stored) or the one-sided difference that the
mirror ghost gives.  An overflow on such a pair alone warns, as a line-by-line
stencil would not; the results keep their bits.  The 2D cross derivative of
``hessian`` reads one padded copy, from ``extend_neumann``, the one function
that fills the mirror ghosts.

Every operator divides by a spacing through one rule, ``_spacing_divisor``: a
power-of-two spacing with a finite reciprocal is multiplied by that
reciprocal, which rounds the same exact value as the quotient, and any other
spacing divides.

The stencils, the integral and the cosine series act on the trailing
``grid.dim`` axes, so ``gradient_cells``, ``hessian``, ``extend_neumann`` and
``integrate`` take a ``FieldStack`` of fields where they take one
``ScalarField``, and treat each field of the stack as they treat it alone.
``gradient_cells`` returns one ``(dim, *f.values.shape)`` array.

Quadrature is the midpoint rule, which is the natural pairing for a
cell-centered finite volume scheme and is exact for cellwise-linear data.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import CorruptionError, DomainError

MIN_CELLS_PER_AXIS = 4


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on a 1D interval or 2D rectangle."""

    cells: tuple[int, ...]
    extents: tuple[float, ...]

    def __post_init__(self):
        if len(self.cells) not in (1, 2) or len(self.extents) != len(self.cells):
            raise DomainError("grid must be 1D or 2D with one extent per axis")
        for n in self.cells:
            try:
                operator.index(n)
            except TypeError:
                raise DomainError(f"cell count must be an integer, got {n!r}") from None
            if n < MIN_CELLS_PER_AXIS:
                raise DomainError(f"need at least {MIN_CELLS_PER_AXIS} cells per axis, got {n}")
        for length in self.extents:
            if not (length > 0.0) or not math.isfinite(length):
                raise DomainError(f"axis extent must be positive and finite, got {length}")
        if not (math.isfinite(self.volume) and math.isfinite(self.cell_volume)):
            raise DomainError(f"domain and cell volumes must be finite, "
                              f"got {self.volume} and {self.cell_volume}")

    @classmethod
    def line(cls, nx: int, lx: float) -> "Grid":
        return cls((nx,), (lx,))

    @classmethod
    def rect(cls, nx: int, ny: int, lx: float, ly: float) -> "Grid":
        return cls((nx, ny), (lx, ly))

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    # cached_property writes the instance __dict__ directly, so it works on a
    # frozen dataclass; equality and hash still see only cells and extents.
    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.extents, self.cells))

    # math.prod overflows to inf without a warning, so __post_init__ can reject it
    @cached_property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def volume(self) -> float:
        return float(math.prod(self.extents))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def centers(self) -> list[np.ndarray]:
        """Cell-center coordinates per axis, shaped for broadcasting."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        if self.dim == 1:
            return axes
        return list(np.meshgrid(*axes, indexing="ij", sparse=True))


@dataclass
class ScalarField:
    """A real value per grid cell.  Values are a float64 array of grid shape."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise DomainError(
                f"field shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )


@dataclass
class FieldStack:
    """Fields of one grid on a leading axis: values of shape (count, *grid.shape)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[1:] != self.grid.shape:
            raise DomainError(
                f"stack shape {self.values.shape} is not (count, *{self.grid.shape})"
            )


def constant_field(grid: Grid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, float(value)))


def field_from_function(grid: Grid, fn: Callable[..., np.ndarray]) -> ScalarField:
    """Sample ``fn(x)`` (1D) or ``fn(x, y)`` (2D) at cell centers."""
    values = np.broadcast_to(fn(*grid.centers()), grid.shape).astype(float)
    return ScalarField(grid, values.copy())


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise CorruptionError("field contains non-finite values")


def integrate(f: ScalarField | FieldStack) -> float | list[float]:
    """Midpoint-rule integral over the domain: h^dim * sum of cell values.

    A float for a ScalarField; a list of each field's integral for a
    FieldStack, each field summed as one contiguous row, as it is summed
    alone.  The values are scanned for non-finite entries only when a sum is
    not finite: a finite sum has only finite terms.  A sum that overflows on
    finite values is returned as it is.
    """
    rows = f.values.reshape(-1, math.prod(f.grid.shape))
    sums = rows.sum(axis=1).tolist()
    if not all(map(math.isfinite, sums)):
        _require_finite(rows)
    totals = [f.grid.cell_volume * total for total in sums]
    return totals if isinstance(f, FieldStack) else totals[0]


def lp_norm(f: ScalarField, p: float) -> float:
    """Discrete L^p norm; pass ``math.inf`` for the sup norm."""
    _require_finite(f.values)
    if p == math.inf:
        return float(np.abs(f.values).max())
    if not p >= 1.0:
        raise DomainError(f"lp_norm requires p >= 1, got {p}")
    return float((f.grid.cell_volume * (np.abs(f.values) ** p).sum()) ** (1.0 / p))


def _spacing_divisor(h: float):
    """``(ufunc, c)`` with ``ufunc(x, c)`` equal to ``x / h`` bit for bit.

    A power of two ``h`` whose reciprocal is finite gives ``(np.multiply,
    1/h)``: 1/h is then exact, so the product and the quotient round the same
    real number, for every x (signed zeros, subnormals, inf and NaN included).
    Any other ``h``, a subnormal power of two among them, gives ``(np.divide, h)``.
    """
    if math.frexp(h)[0] == 0.5 and math.isfinite(1.0 / h):
        return np.multiply, 1.0 / h
    return np.divide, h


def _along(axis: int, index) -> tuple:
    """Index ``index`` along the negative ``axis``, every other axis whole."""
    return (Ellipsis, index) + (slice(None),) * (-1 - axis)


def extend_neumann(f: ScalarField | FieldStack) -> np.ndarray:
    """Values with one mirror ghost layer on each grid axis, a ghost equal to
    the adjacent interior cell."""
    dim = f.grid.dim
    out = np.empty(f.values.shape[:-dim] + tuple(n + 2 for n in f.grid.shape))
    out[(Ellipsis,) + (slice(1, -1),) * dim] = f.values
    for axis in range(-dim, 0):
        out[_along(axis, 0)] = out[_along(axis, 1)]
        out[_along(axis, -1)] = out[_along(axis, -2)]
    return out


def _second_difference(f: ScalarField | FieldStack, axis: int, out: np.ndarray) -> np.ndarray:
    """(g_R - g_L)/h along grid ``axis`` into ``out`` (C-contiguous, shaped as
    ``f.values``), g the face gradient with zero boundary faces.

    The faces g_k = (f_{k+st} - f_k)/h, st the axis's flat stride, and their
    differences are offset views of the flat values, one ufunc call each.  The
    pairs that join one line of the axis to the next land on its first and
    last cells, which are then written from the faces: the first takes
    g_R - 0 = g_R and the last 0 - g_L, a subtraction so that +0.0 stays +0.0.
    """
    values, dim = f.values, f.grid.dim
    scale, by = _spacing_divisor(f.grid.spacing[axis])
    st = math.prod(f.grid.shape[axis + 1:])
    flat = values.reshape(-1)
    g = np.empty(flat.shape)        # g[k] is the face from cell k to k + st
    faces = np.subtract(flat[st:], flat[:-st], out=g[:-st])
    scale(faces, by, out=faces)
    np.subtract(faces[st:], faces[:-st], out=out.reshape(-1)[st:-st])
    g = g.reshape(values.shape)
    first, last = _along(axis - dim, 0), _along(axis - dim, -1)
    out[first] = g[first]
    np.subtract(0.0, g[_along(axis - dim, -2)], out=out[last])
    return scale(out, by, out=out)


def gradient_cells(f: ScalarField | FieldStack) -> np.ndarray:
    """Per-axis cell-centered central differences (f_{i+1} - f_{i-1})/(2h),
    shape (dim, *f.values.shape).

    Mirror ghosts make the boundary cells use a one-sided stencil of the same
    form, consistent with the zero-flux closure: the first cell of an axis
    takes (f_1 - f_0)/(2h) and the last (f_{n-1} - f_{n-2})/(2h).  The
    differences are offset views of the flat values, entry k against k +- st,
    as in ``_second_difference``; each axis's first and last cells, where the
    flat neighbours are not the grid's, are then written from the field.
    """
    values, dim = f.values, f.grid.dim
    flat = values.reshape(-1)
    out = np.empty((dim,) + values.shape)
    for axis, h in enumerate(f.grid.spacing):
        st = math.prod(f.grid.shape[axis + 1:])
        grad = out[axis]
        np.subtract(flat[2 * st:], flat[:-2 * st], out=grad.reshape(-1)[st:-st])
        first, last = _along(axis - dim, 0), _along(axis - dim, -1)
        np.subtract(values[_along(axis - dim, 1)], values[first], out=grad[first])
        np.subtract(values[last], values[_along(axis - dim, -2)], out=grad[last])
        scale, by = _spacing_divisor(2.0 * h)
        scale(grad, by, out=grad)
    return out


def laplacian(f: ScalarField) -> ScalarField:
    """3-point (1D) / 5-point (2D) Laplacian with mirror ghosts.

    Computed as the divergence of the face gradient, so its integral over the
    domain telescopes to zero exactly and the stencil is exact for quadratics
    away from the boundary.
    """
    total = _second_difference(f, 0, np.empty(f.values.shape))
    for axis in range(1, f.grid.dim):
        total += _second_difference(f, axis, np.empty(f.values.shape))
    return ScalarField(f.grid, total)


def hessian(f: ScalarField | FieldStack) -> np.ndarray:
    """Discrete Hessian, shape (dim, dim, *f.values.shape), symmetric by construction.

    Diagonal entries use the same per-axis second-difference stencil as
    ``laplacian`` (so the trace matches it to round-off); off-diagonal entries
    use the centered cross stencil on mirror ghosts,
    ``((p[i+1, j+1] - p[i+1, j-1]) - p[i-1, j+1]) + p[i-1, j-1]`` over 4 h0 h1,
    p the one padded copy, from ``extend_neumann``.
    """
    dim, h = f.grid.dim, f.grid.spacing
    out = np.empty((dim, dim) + f.values.shape)
    for axis in range(dim):
        _second_difference(f, axis, out[axis, axis])
    if dim == 2:
        p = extend_neumann(f)
        cross = np.subtract(p[..., 2:, 2:], p[..., 2:, :-2], out=out[0, 1])
        cross -= p[..., :-2, 2:]
        cross += p[..., :-2, :-2]
        scale, by = _spacing_divisor(4.0 * h[0] * h[1])
        scale(cross, by, out=cross)
        out[1, 0] = cross
    return out


def _cosine_rows(grid: Grid, axis: int, ks: np.ndarray) -> np.ndarray:
    """cos(k pi x / L) at the cell centers of ``axis``, one row per mode index in ``ks``."""
    return np.cos(ks[:, None] * math.pi * grid.axis_centers(axis) / grid.extents[axis])


def _cosine_series(grid: Grid, tables: list[np.ndarray], rows: np.ndarray,
                   coeffs: np.ndarray) -> np.ndarray:
    """Values of the cosine series of each ``coeffs`` ``(*lead, num_modes)``,
    shape ``(*lead, *grid.shape)``.

    Mode j's cosines on an axis are row ``rows[..., j, axis]`` of that axis's
    table, so ``np.cos`` runs once per distinct mode index, not per field and
    mode.  Each mode's scaled term is built in one scratch array and added to
    the sum in mode order; no array has both a mode axis and a cell axis.
    """
    scale = coeffs.reshape(coeffs.shape + (1,) * grid.dim)
    values = np.zeros(coeffs.shape[:-1] + grid.shape)
    term = np.empty(values.shape)
    for j in range(coeffs.shape[-1]):
        cos_x = tables[0][rows[..., j, 0]]
        if grid.dim == 1:
            np.multiply(cos_x, scale[..., j, :], out=term)
        else:
            np.multiply(cos_x[..., :, None], tables[1][rows[..., j, 1]][..., None, :], out=term)
            term *= scale[..., j, :, :]
        values += term
    return values


def cosine_field(grid: Grid, modes: Sequence[Sequence[int]], coeffs: Sequence[float]) -> ScalarField:
    """Finite cosine series sum_j c_j prod_a cos(k_{ja} pi x_a / L_a).

    Each mode has zero normal derivative on the boundary, so these fields are
    the natural Neumann-compatible test inputs for the discrete operators.
    """
    modes = np.atleast_2d(np.asarray(modes, dtype=int))
    coeffs = np.asarray(coeffs, dtype=float)
    if modes.shape[0] != coeffs.shape[0] or modes.shape[1] != grid.dim:
        raise DomainError("modes must be (num_modes, dim) and match coeffs length")
    tables, rows = [], np.empty_like(modes)
    for axis in range(grid.dim):
        ks, rows[:, axis] = np.unique(modes[:, axis], return_inverse=True)
        tables.append(_cosine_rows(grid, axis, ks))
    return ScalarField(grid, _cosine_series(grid, tables, rows, coeffs))


MAX_MODE_INDEX = 4


def random_smooth_stack(grid: Grid, seeds: Sequence, num_modes: int) -> FieldStack:
    """``random_smooth_field`` of each of ``seeds``, stacked in that order.

    Each field draws from its own generator; one cosine series call builds
    them all, from one table per axis of the mode indices 0..MAX_MODE_INDEX.
    """
    if num_modes < 1:
        raise DomainError("num_modes must be >= 1")
    modes = np.empty((len(seeds), num_modes, grid.dim), dtype=int)
    raw = np.empty((len(seeds), num_modes))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        modes[k] = rng.integers(0, MAX_MODE_INDEX + 1, size=(num_modes, grid.dim))
        raw[k] = rng.standard_normal(num_modes)
    ks = np.arange(MAX_MODE_INDEX + 1)
    tables = [_cosine_rows(grid, axis, ks) for axis in range(grid.dim)]
    return FieldStack(grid, _cosine_series(grid, tables, modes,
                                           raw / (1.0 + (modes**2).sum(axis=-1))))


def random_smooth_field(grid: Grid, seed, num_modes: int) -> ScalarField:
    """Seeded random cosine series with coefficients decayed as 1/(1 + |k|^2).

    Deterministic for a given seed; mode indices stay small enough that a
    32-cell axis still resolves every half wave.
    """
    return ScalarField(grid, random_smooth_stack(grid, [seed], num_modes).values[0])


def write_field(f: ScalarField, path: str | Path) -> None:
    """Dump cell values row-major with a one-line header ``dim,nx[,ny],Lx[,Ly]``."""
    grid = f.grid
    header = ",".join(
        [str(grid.dim)]
        + [str(n) for n in grid.cells]
        + [repr(float(l)) for l in grid.extents]
    )
    lines = [header] + [repr(float(x)) for x in f.values.ravel(order="C")]
    Path(path).write_text("\n".join(lines) + "\n")


def read_field(path: str | Path) -> ScalarField:
    """Inverse of :func:`write_field`."""
    lines = Path(path).read_text().splitlines()
    parts = lines[0].split(",")
    dim = int(parts[0])
    cells = tuple(int(x) for x in parts[1 : 1 + dim])
    extents = tuple(float(x) for x in parts[1 + dim : 1 + 2 * dim])
    grid = Grid(cells, extents)
    values = np.array([float(x) for x in lines[1:]]).reshape(grid.shape, order="C")
    return ScalarField(grid, values)
