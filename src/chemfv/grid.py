"""Uniform cell-centered Cartesian grids and their discrete operators.

Fields live at cell centers x_i = (i + 1/2) h on a rectangular domain.  Every
derivative stencil closes the boundary with mirror ghost cells, which makes
the zero-flux (homogeneous Neumann) condition exact: the normal difference
across any boundary face is identically zero, so divergence-form operators
conserve their integrand to round-off and ``integrate(laplacian(f)) == 0``
holds for arbitrary fields.

The ghosts are implicit: the second differences write the boundary cells
from slices of the interior face gradients, and the zero boundary faces are
never stored.  ``extend_neumann`` builds the one padded copy, for the
centered stencils of ``gradient_cells`` and the 2D cross derivative.

Quadrature is the midpoint rule, which is the natural pairing for a
cell-centered finite volume scheme and is exact for cellwise-linear data.
"""
from __future__ import annotations

import math
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
            if int(n) != n or n < MIN_CELLS_PER_AXIS:
                raise DomainError(f"need at least {MIN_CELLS_PER_AXIS} cells per axis, got {n}")
        for length in self.extents:
            if not (length > 0.0) or not math.isfinite(length):
                raise DomainError(f"axis extent must be positive and finite, got {length}")

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

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))

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

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


def constant_field(grid: Grid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, float(value)))


def field_from_function(grid: Grid, fn: Callable[..., np.ndarray]) -> ScalarField:
    """Sample ``fn(x)`` (1D) or ``fn(x, y)`` (2D) at cell centers."""
    values = np.broadcast_to(fn(*grid.centers()), grid.shape).astype(float)
    return ScalarField(grid, values.copy())


def require_finite(f: ScalarField) -> None:
    if not np.isfinite(f.values).all():
        raise CorruptionError("field contains non-finite values")


def integrate(f: ScalarField) -> float:
    """Midpoint-rule integral over the domain: h^dim * sum of cell values."""
    require_finite(f)
    return f.grid.cell_volume * float(f.values.sum())


def lp_norm(f: ScalarField, p: float) -> float:
    """Discrete L^p norm; pass ``math.inf`` for the sup norm."""
    require_finite(f)
    if p == math.inf:
        return float(np.abs(f.values).max())
    if p < 1.0:
        raise DomainError(f"lp_norm requires p >= 1, got {p}")
    return float((f.grid.cell_volume * (np.abs(f.values) ** p).sum()) ** (1.0 / p))


def extend_neumann(f: ScalarField) -> np.ndarray:
    """Values with one mirror ghost layer: ghost equals the adjacent interior cell.

    The one padded copy in this module; only ``gradient_cells`` and the 2D
    cross stencil of ``hessian`` use it.
    """
    values = f.values
    out = np.empty(tuple(n + 2 for n in values.shape))
    out[(slice(1, -1),) * values.ndim] = values
    for axis in range(values.ndim):
        lead = (slice(None),) * axis
        out[lead + (0,)] = out[lead + (1,)]
        out[lead + (-1,)] = out[lead + (-2,)]
    return out


def _second_difference(values: np.ndarray, axis: int, h: float,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Per-axis (g_R - g_L)/h, g the face gradient with zero boundary faces.

    The boundary faces are never stored: the first cell takes g_R - 0 = g_R
    and the last 0 - g_L, computed as a subtraction so that +0.0 stays +0.0.
    """
    lead = (slice(None),) * axis
    g = np.diff(values, axis=axis) / h
    if out is None:
        out = np.empty(values.shape)
    np.subtract(g[lead + (slice(1, None),)], g[lead + (slice(None, -1),)],
                out=out[lead + (slice(1, -1),)])
    first, last = lead + (slice(0, 1),), lead + (slice(-1, None),)
    out[first] = g[first]
    np.subtract(0.0, g[last], out=out[last])
    out /= h
    return out


def gradient_cells(f: ScalarField) -> tuple[np.ndarray, ...]:
    """Per-axis cell-centered central differences (f_{i+1} - f_{i-1})/(2h).

    Mirror ghosts make the boundary cells use a one-sided stencil of the same
    form, consistent with the zero-flux closure.
    """
    padded = extend_neumann(f)
    out = []
    for axis, h in enumerate(f.grid.spacing):
        lo = [slice(1, -1)] * padded.ndim
        hi = [slice(1, -1)] * padded.ndim
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        out.append((padded[tuple(hi)] - padded[tuple(lo)]) / (2.0 * h))
    return tuple(out)


def laplacian(f: ScalarField) -> ScalarField:
    """3-point (1D) / 5-point (2D) Laplacian with mirror ghosts.

    Computed as the divergence of the face gradient, so its integral over the
    domain telescopes to zero exactly and the stencil is exact for quadratics
    away from the boundary.
    """
    h = f.grid.spacing
    total = _second_difference(f.values, 0, h[0])
    for axis in range(1, f.grid.dim):
        total += _second_difference(f.values, axis, h[axis])
    return ScalarField(f.grid, total)


def hessian(f: ScalarField) -> np.ndarray:
    """Discrete Hessian, shape (dim, dim, *grid.shape), symmetric by construction.

    Diagonal entries use the same per-axis second-difference stencil as
    ``laplacian`` (so the trace matches it to round-off); off-diagonal entries
    use the centered cross stencil on mirror ghosts.
    """
    grid = f.grid
    h = grid.spacing
    out = np.empty((grid.dim, grid.dim) + grid.shape)
    for axis in range(grid.dim):
        _second_difference(f.values, axis, h[axis], out=out[axis, axis])
    if grid.dim == 2:
        p = extend_neumann(f)
        cross = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4.0 * h[0] * h[1])
        out[0, 1] = cross
        out[1, 0] = cross
    return out


def cosine_field(grid: Grid, modes: Sequence[Sequence[int]], coeffs: Sequence[float]) -> ScalarField:
    """Finite cosine series sum_j c_j prod_a cos(k_{ja} pi x_a / L_a).

    Each mode has zero normal derivative on the boundary, so these fields are
    the natural Neumann-compatible test inputs for the discrete operators.
    One ``np.cos`` call per axis covers every mode, one broadcast product
    builds every mode's term, and the scaled terms are summed mode by mode.
    """
    modes = np.atleast_2d(np.asarray(modes, dtype=int))
    coeffs = np.asarray(coeffs, dtype=float)
    if modes.shape[0] != coeffs.shape[0] or modes.shape[1] != grid.dim:
        raise DomainError("modes must be (num_modes, dim) and match coeffs length")
    cosines = [np.cos(modes[:, axis, None] * math.pi * grid.axis_centers(axis) / grid.extents[axis])
               for axis in range(grid.dim)]
    terms = cosines[0]
    for axis in range(1, grid.dim):
        terms = terms[..., None] * cosines[axis][:, None, :]
    terms *= coeffs.reshape((-1,) + (1,) * grid.dim)
    values = np.zeros(grid.shape)
    for term in terms:
        values += term
    return ScalarField(grid, values)


MAX_MODE_INDEX = 4


def random_smooth_field(grid: Grid, seed, num_modes: int) -> ScalarField:
    """Seeded random cosine series with coefficients decayed as 1/(1 + |k|^2).

    Deterministic for a given seed; mode indices stay small enough that a
    32-cell axis still resolves every half wave.
    """
    if num_modes < 1:
        raise DomainError("num_modes must be >= 1")
    rng = np.random.default_rng(seed)
    modes = rng.integers(0, MAX_MODE_INDEX + 1, size=(num_modes, grid.dim))
    raw = rng.standard_normal(num_modes)
    coeffs = raw / (1.0 + (modes**2).sum(axis=1))
    return cosine_field(grid, modes, coeffs)


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
