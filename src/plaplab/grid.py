"""Uniform 1D/2D grids, grid functions, difference stencils, norms, and CSV io.

Periodic grids store N nodes per axis (spacing (b-a)/N, the right endpoint
wraps to the left); Dirichlet grids store both endpoints (spacing
(b-a)/(N-1)). Fields are immutable once constructed.

Difference stencils (``Stencil``) read the values from a buffer padded with
one ghost layer per side. There is one formula per derivative, in every
dimension: the central difference (u[i+e] - u[i-e]) / (2 h), the second
difference ((u[i+e] + u[i-e]) - 2 u[i]) / h^2, and in 2D the mixed one as the
central y-difference of the x-gradient; each scale is one multiply by a
reciprocal. Every sum is taken in an order that reflection of the grid maps
onto itself, so data symmetric about a node has exactly symmetric second
differences and exactly antisymmetric first ones (an exact 0 at the node).
``gradient_arrays`` and ``hessian_arrays`` pad a copy of the field they are
given on each call; a solve keeps its field in one such buffer for the whole
run. On periodic grids a ghost holds
the value it wraps to (corner ghosts wrap in both axes); on Dirichlet grids it
copies the nearest edge node. Dirichlet edge copies only reach the stencils
of boundary nodes, which carry no update and are masked off via
``interior_mask``.

The stencils work on whole padded rows: every operand is one contiguous
slice of the flattened buffer, from the first node to the last, so in 2D it
also covers the ghost columns of the inner rows. Results at those positions
are garbage that no node reads; an update written over the rows spills into
the ghost columns, and ``Stencil.fill_ghosts`` then overwrites every ghost.
In 1D the rows are exactly the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import GridMismatchError


class Boundary(Enum):
    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class GridSpec:
    dim: int
    extent: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    boundary: Boundary

    def __post_init__(self):
        object.__setattr__(self, "dim", _whole(self.dim, "dim"))
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        object.__setattr__(self, "extent", tuple((float(a), float(b)) for a, b in self.extent))
        object.__setattr__(self, "resolution",
                           tuple(_whole(n, "resolution") for n in self.resolution))
        if len(self.extent) != self.dim or len(self.resolution) != self.dim:
            raise ValueError("extent/resolution must have one entry per axis")
        for (a, b), n in zip(self.extent, self.resolution):
            if not b > a:
                raise ValueError(f"empty extent [{a}, {b}]")
            if n < 8:
                raise ValueError("resolution must be >= 8 nodes per axis")

    @staticmethod
    def line(a: float, b: float, n: int, boundary: Boundary) -> "GridSpec":
        return GridSpec(1, ((a, b),), (n,), boundary)

    @staticmethod
    def box(extent, resolution, boundary: Boundary) -> "GridSpec":
        return GridSpec(2, tuple(extent), tuple(resolution), boundary)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @property
    def spacing(self) -> tuple[float, ...]:
        div = 0 if self.boundary is Boundary.PERIODIC else 1
        return tuple((b - a) / (n - div) for (a, b), n in zip(self.extent, self.resolution))

    def axis_coords(self, axis: int) -> np.ndarray:
        (a, _), n = self.extent[axis], self.resolution[axis]
        h = self.spacing[axis]
        return a + h * np.arange(n)

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of full ``shape`` (indexing='ij'); cached, read-only."""
        return _cached_meshes(self)

    def refine(self) -> "GridSpec":
        """Halve the spacing keeping node positions nested."""
        if self.boundary is Boundary.PERIODIC:
            res = tuple(2 * n for n in self.resolution)
        else:
            res = tuple(2 * n - 1 for n in self.resolution)
        return GridSpec(self.dim, self.extent, res, self.boundary)


def _whole(value, what: str) -> int:
    """An int, numpy int or integral float as an int; a fractional count is an
    error, not a truncation."""
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{what} must be a whole number, got {value!r}")


@lru_cache(maxsize=128)
def _cached_meshes(grid: GridSpec) -> tuple[np.ndarray, ...]:
    axes = [grid.axis_coords(k) for k in range(grid.dim)]
    if grid.dim == 1:
        out = (axes[0],)
    else:
        out = tuple(np.meshgrid(*axes, indexing="ij"))
    for arr in out:
        arr.flags.writeable = False
    return out


@dataclass(frozen=True)
class ScalarField:
    grid: GridSpec
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"time must be finite and >= 0, got {self.time}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_function(grid: GridSpec, fn: Callable, time: float = 0.0) -> "ScalarField":
        vals = np.asarray(fn(*grid.meshes()), dtype=float)
        vals = np.broadcast_to(vals, grid.shape)
        return ScalarField(grid, vals, time)


class Stencil:
    """The difference formulas over one ghost-padded buffer (see module doc).

    Every operand is one contiguous slice of the flattened buffer, the *rows*:
    they run from the first node to the last, so in 2D they include the ghost
    columns of the inner rows (n entries in 1D, n0 (n1 + 2) - 2 in 2D). A
    neighbour is the same slice shifted by +-1 along the last axis and by
    +-(n1 + 2) along the first. ``gradient`` and ``hessian`` write arrays in
    this row layout that the stencil allocates on first use and rewrites on
    every call; ``nodes`` views one as ``grid.shape``. ``values`` and ``rows``
    are the two views of the buffer's own nodes; whoever rewrites them then
    calls ``fill_ghosts``.
    """

    def __init__(self, grid: GridSpec, values: np.ndarray):
        self.padded = padded = np.empty(tuple(n + 2 for n in grid.shape))
        self.values = padded[(slice(1, -1),) * grid.dim]
        self.values[...] = values
        # ghost <- the node it wraps to (periodic) or the edge node (Dirichlet),
        # axis by axis over full extents, so later axes also fill the corners;
        # (ghost, node) index pairs into padded, plain ints along the first axis
        # (in 1D each ghost is one scalar)
        lo, hi = (-2, 1) if grid.boundary is Boundary.PERIODIC else (1, -2)
        self._ghosts = []
        for ax in range(grid.dim):
            def plane(i):
                return (slice(None),) * ax + (i,) if ax else i
            self._ghosts += [(plane(0), plane(lo)), (plane(-1), plane(hi))]
        flat = padded.reshape(-1)
        unit = [s // padded.itemsize for s in padded.strides]  # flat offset of one step per axis
        first = sum(unit)  # node (0, ..., 0)

        def shifted(offset, margin=0):  # values[i + offset] for every row-layout entry i,
            # and for ``margin`` more entries at each end
            return flat[first + offset - margin:flat.size - first + offset + margin]

        self.rows = shifted(0)
        # per axis: values[i + e] and values[i - e] over the gradient's entries
        # (in 2D the x-difference runs one entry past each end of the rows, so
        # that the cross difference can read it one column up and down) and
        # over the rows, then 1 / (2 h) and 1 / h^2
        margins = (1, 0) if grid.dim == 2 else (0,)
        self._axes = [(shifted(o, m), shifted(-o, m), shifted(o), shifted(-o),
                       1.0 / (2.0 * h), 1.0 / (h * h))
                      for o, h, m in zip(unit, grid.spacing, margins)]
        self._cross_scale = 1.0 / (2.0 * grid.spacing[-1])
        self._grad = self._hess = None
        self.fill_ghosts()

    def fill_ghosts(self) -> None:
        """Overwrite every ghost, including what a row-layout update spilled there."""
        padded = self.padded
        for ghost, node in self._ghosts:
            padded[ghost] = padded[node]

    def nodes(self, rows: np.ndarray) -> np.ndarray:
        """The ``grid.shape`` view of a contiguous row-layout array (skips the
        ghost columns)."""
        if rows.shape != self.rows.shape or rows.strides != (rows.itemsize,):
            raise ValueError("not a contiguous row-layout array")
        strides = tuple(s // self.values.itemsize * rows.itemsize for s in self.values.strides)
        return np.lib.stride_tricks.as_strided(rows, self.values.shape, strides)

    def gradient(self) -> list[np.ndarray]:
        """Central-difference gradient components (u[i+e] - u[i-e]) / (2 h), in
        the row layout (entries at ghost columns and Dirichlet boundary nodes
        are not meaningful)."""
        if self._grad is None:
            self._wide = [np.empty(fa.shape) for fa, *_ in self._axes]
            n = self.rows.size
            self._grad = [w[(w.size - n) // 2:][:n] for w in self._wide]
        for (fa, fb, _, _, inv_2h, _), o in zip(self._axes, self._wide):
            np.multiply(np.subtract(fa, fb, out=o), inv_2h, out=o)
        return self._grad

    def hessian(self, cross_factor: float = 1.0) -> dict[tuple[int, int], np.ndarray]:
        """Second differences keyed by (i, j) with i <= j, in the row layout:
        ((u[i+e] + u[i-e]) - 2u) / h^2 on the diagonal and, in 2D, the central
        y-difference of the x-gradient, times ``cross_factor`` (a power of 2
        scales it exactly). The cross difference reads the x-gradient that the
        last ``gradient`` call wrote, so call that first on the same values."""
        rows, dim = self.rows, len(self._axes)
        if self._hess is None:
            keys = [(ax, ax) for ax in range(dim)] + ([(0, 1)] if dim == 2 else [])
            self._hess = {k: np.empty(rows.shape) for k in keys}
            # 2u, in the cross entry's array where there is one (it is written last)
            self._twice = self._hess[(0, 1)] if dim == 2 else np.empty(rows.shape)
        out = self._hess
        twice = np.multiply(rows, 2.0, out=self._twice)
        for ax, (_, _, fa, fb, _, inv_h2) in enumerate(self._axes):
            o = np.add(fa, fb, out=out[(ax, ax)])
            np.multiply(np.subtract(o, twice, out=o), inv_h2, out=o)
        if dim == 2:
            if self._grad is None:
                raise ValueError("the cross difference needs a gradient first")
            wide = self._wide[0]  # the x-gradient, one entry past each end of the rows
            o = np.subtract(wide[2:], wide[:-2], out=out[(0, 1)])
            np.multiply(o, self._cross_scale * cross_factor, out=o)
        return out


def gradient_arrays(field: ScalarField) -> list[np.ndarray]:
    """``Stencil.gradient`` of one field, into new arrays of ``grid.shape``."""
    stencil = Stencil(field.grid, field.values)
    return [stencil.nodes(g) for g in stencil.gradient()]


def hessian_arrays(field: ScalarField) -> dict[tuple[int, int], np.ndarray]:
    """``Stencil.hessian`` of one field, into new arrays of ``grid.shape``."""
    stencil = Stencil(field.grid, field.values)
    stencil.gradient()  # the cross difference reads the x-gradient
    return {k: stencil.nodes(v) for k, v in stencil.hessian().items()}


def interior_mask(grid: GridSpec) -> np.ndarray:
    """True where stencil updates apply (everywhere on periodic grids)."""
    if grid.boundary is Boundary.PERIODIC:
        return np.ones(grid.shape, dtype=bool)
    mask = np.zeros(grid.shape, dtype=bool)
    sl = tuple(slice(1, -1) for _ in range(grid.dim))
    mask[sl] = True
    return mask


def sup_diff(f: ScalarField, g: ScalarField) -> float:
    if f.grid != g.grid:
        raise GridMismatchError("sup_diff requires identical grids")
    return float(np.max(np.abs(f.values - g.values)))


def restrict_to(fine: ScalarField, coarse_grid: GridSpec) -> ScalarField:
    """Restrict a once-refined field back onto its parent grid's nodes."""
    if coarse_grid.refine() != fine.grid:
        raise GridMismatchError("fine grid is not the refinement of the coarse grid")
    sl = tuple(slice(None, None, 2) for _ in range(fine.grid.dim))
    return ScalarField(coarse_grid, fine.values[sl], fine.time)


# -- persistence --------------------------------------------------------------

_FMT = "%.17g"


def save_field(field: ScalarField, path) -> None:
    """Dump as CSV: a grid-describing header line, then values row-major."""
    g = field.grid
    extent = ";".join(_FMT % a + "," + _FMT % b for a, b in g.extent)
    res = ",".join(str(n) for n in g.resolution)
    header = (
        f"# grid dim={g.dim} extent={extent} N={res} "
        f"boundary={g.boundary.value} time={_FMT % field.time}"
    )
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for v in field.values.ravel(order="C"):
            fh.write(_FMT % v + "\n")


def load_field(path) -> ScalarField:
    with open(path) as fh:
        header = fh.readline().strip()
        body = [line.strip() for line in fh if line.strip()]
    if not header.startswith("# grid "):
        raise ValueError(f"not a field file: {path}")
    kv = {}
    for token in header[len("# grid "):].split():
        key, _, val = token.partition("=")
        kv[key] = val
    dim = int(kv["dim"])
    extent = tuple(tuple(float(x) for x in pair.split(",")) for pair in kv["extent"].split(";"))
    res = tuple(int(x) for x in kv["N"].split(","))
    grid = GridSpec(dim, extent, res, Boundary(kv["boundary"]))
    values = np.array([float(x) for x in body]).reshape(grid.shape, order="C")
    return ScalarField(grid, values, float(kv["time"]))
