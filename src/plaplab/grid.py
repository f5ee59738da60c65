"""Uniform 1D/2D grids, grid functions, difference stencils, norms, and CSV io.

Periodic grids store N nodes per axis (spacing (b-a)/N, the right endpoint
wraps to the left); Dirichlet grids store both endpoints (spacing
(b-a)/(N-1)). Fields are immutable once constructed.

Difference stencils (``Stencil``) read the values from a buffer with a frame
one node wide. There is one formula per derivative, in every dimension: the
central difference (u[i+e] - u[i-e]) / (2 h), the second difference
((u[i+e] + u[i-e]) - 2 u[i]) / h^2, and in 2D the mixed one as the central
y-difference of the x-gradient; each scale is one multiply by a reciprocal.
Every sum is taken in an order that reflection of the grid maps onto itself,
so data symmetric about a node has exactly symmetric second differences and
exactly antisymmetric first ones (an exact 0 at the node).
``gradient_arrays`` and ``hessian_arrays`` copy the field they are given into
a new buffer on each call; a solve keeps its field in one buffer for the
whole run.

A Dirichlet grid is its own frame: the buffer is the field itself, and its
boundary nodes, which carry the prescribed data, are the ghosts of the
interior. The stencils run over the interior, the nodes a step updates, and
no result is taken at a boundary node. A periodic grid keeps a ghost layer
around its nodes, each ghost holding the value it wraps to (corner ghosts
wrap in both axes), and every node is updated.

The stencils work on whole rows: every operand is one contiguous slice of
the flattened buffer, from the first updated node to the last, so in 2D it
also covers the frame columns between the inner rows, the ghost columns (on
a Dirichlet grid these are boundary nodes). Results at those positions are
garbage that no node reads; an update written over the rows spills into the
ghost columns, and ``Stencil.fill_ghosts`` (periodic) or the boundary data
(Dirichlet) then overwrites them. In 1D the rows of one field are exactly
its updated nodes.

A stencil also takes a batch of fields on one grid, along a leading axis of
its buffer, each field in its own frame. The batch is laid out like the rows
of a grid with one more axis: the rows run from the first field's first
updated node to the last field's last, and the frame entries between two
fields are ghost columns too.

A stencil places every full-row array of a solve, its own and the kernel's
temporaries, with ``Stencil.empty``: each starts page-aligned plus a stagger
of 320 bytes (five cache lines) times the number of arrays that stencil has
already placed, modulo 12, so twelve arrays start at twelve offsets below
4 KiB, at least 320 bytes apart. Left to ``np.empty``, arrays of one size take
heap chunks of one size: the row arrays of a 129 x 129 Dirichlet grid (131,048
bytes, just under glibc's 128 KiB mmap threshold) each take a chunk 8 bytes
short of 32 pages, so they all start at nearly the same address modulo 4 KiB.
The passes that read and write several of them at once then compete for the
same L1 cache sets, and their loads and stores 4K-alias each other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import GridMismatchError

# Stencil.empty's placement: page-aligned plus one of _STAGGERS staggers
_PAGE, _STAGGER, _STAGGERS = 4096, 320, 12


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
        object.__setattr__(self, "dim", whole_number(self.dim, "dim"))
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        object.__setattr__(self, "extent", tuple((float(a), float(b)) for a, b in self.extent))
        object.__setattr__(self, "resolution",
                           tuple(whole_number(n, "resolution") for n in self.resolution))
        if len(self.extent) != self.dim or len(self.resolution) != self.dim:
            raise ValueError("extent/resolution must have one entry per axis")
        for (a, b), n in zip(self.extent, self.resolution):
            if not math.isfinite(b - a):  # also where an endpoint is not finite
                raise ValueError(f"extent [{a}, {b}] must have a finite length")
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
        """Coordinate arrays of full ``shape`` (indexing='ij'), new ones on
        each call."""
        axes = [self.axis_coords(k) for k in range(self.dim)]
        return (axes[0],) if self.dim == 1 else tuple(np.meshgrid(*axes, indexing="ij"))

    def refine(self) -> "GridSpec":
        """Halve the spacing keeping node positions nested."""
        if self.boundary is Boundary.PERIODIC:
            res = tuple(2 * n for n in self.resolution)
        else:
            res = tuple(2 * n - 1 for n in self.resolution)
        return GridSpec(self.dim, self.extent, res, self.boundary)


def whole_number(value, what: str) -> int:
    """An int, numpy int or integral float as an int; a fractional count is an
    error, not a truncation."""
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{what} must be a whole number, got {value!r}")


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
    """The difference formulas over one framed buffer (see module doc), for a
    field of ``grid.shape`` or a batch of B of them, of shape (B, *grid.shape).

    Every operand is one contiguous slice of the flattened buffer, the *rows*:
    they run from the first updated node to the last, so in 2D they include
    the ghost columns of the inner rows. For one field that is n entries in 1D
    and n0 (n1 + 2) - 2 in 2D on a periodic grid, n - 2 and (n0 - 2) n1 - 2 on
    a Dirichlet grid; a batch adds the whole framed field once per further
    field. A neighbour is the same slice shifted by +-1 along the last axis
    and by one buffer row along the first. ``gradient`` and ``hessian`` write
    arrays in this row layout that the stencil allocates on first use and
    rewrites on every call; ``nodes`` views one as the updated nodes,
    ``values[..., updated]``, and ``ghost_columns`` holds the flat indices of
    the row-layout entries that are no updated node (none for one 1D field).
    ``values`` is the view of the buffer's nodes, of the shape of the values
    it was given, ``rows`` its
    row view and ``flat`` the whole buffer, flattened: every node, those on
    both boundaries included, and on a periodic grid the ghosts, which copy
    nodes once filled. Whoever rewrites the nodes then calls ``fill_ghosts``
    (periodic) or writes the boundary data (Dirichlet).
    """

    def __init__(self, grid: GridSpec, values: np.ndarray):
        # a batch of fields on one grid lies along a leading axis, each in its
        # own frame; a Dirichlet grid is its own frame, a periodic grid's
        # nodes sit in a ghost layer
        values = np.asarray(values, dtype=float)
        batch, frame = values.shape[:-grid.dim], _frame(grid)
        self._placed = 0  # the arrays ``empty`` has placed
        self._buffer = buffer = self.empty(batch + tuple(n + 2 - 2 * frame for n in grid.shape))
        self.values = buffer if frame else buffer[(...,) + (slice(1, -1),) * grid.dim]
        self.values[...] = values
        self.updated = tuple(slice(frame, n - frame) for n in grid.shape)
        # periodic: ghost <- the node it wraps to, axis by axis over full
        # extents, so later axes also fill the corners; per axis one (ghosts,
        # nodes) pair of strided views of every field: the ghost planes 0 and
        # n + 1 take the nodes n and 1
        self._ghosts = []
        for ax, n in enumerate(() if frame else grid.shape):
            after = (slice(None),) * (grid.dim - 1 - ax)
            self._ghosts.append((buffer[(..., slice(0, None, n + 1)) + after],
                                 buffer[(..., slice(n, 0, 1 - n)) + after]))
        self.flat = flat = buffer.reshape(-1)
        # flat offset of one step per grid axis
        unit = [s // buffer.itemsize for s in buffer.strides[len(batch):]]
        first = sum(unit)  # the first updated node, (1, ..., 1) of the first field

        def shifted(offset, margin=0):  # values[i + offset] for every row-layout entry i,
            # and for ``margin`` more entries at each end
            return flat[first + offset - margin:flat.size - first + offset + margin]

        self.rows = shifted(0)
        ghost = np.ones(self.rows.shape, bool)
        self.nodes(ghost)[...] = False
        self.ghost_columns = np.flatnonzero(ghost)
        # per axis: values[i + e] and values[i - e] over the gradient's entries
        # (in 2D the x-difference runs one entry past each end of the rows, so
        # that the cross difference can read it one column up and down) and
        # over the rows, then 1 / (2 h) and 1 / h^2
        margins = (1, 0) if grid.dim == 2 else (0,)
        self._axes = [(shifted(o, m), shifted(-o, m), shifted(o), shifted(-o),
                       1.0 / (2.0 * h), 1.0 / (h * h))
                      for o, h, m in zip(unit, grid.spacing, margins)]
        self._cross_scale = 1.0 / grid.spacing[-1]  # twice the y-difference's 1 / (2 h)
        self._grad = self._hess = None
        self.fill_ghosts()

    def empty(self, shape, dtype=float) -> np.ndarray:
        """A new uninitialized array of ``shape`` (a tuple) that starts
        page-aligned plus this stencil's next stagger (see module doc): a view
        into a byte block one page and the stagger larger."""
        dtype, stagger = np.dtype(dtype), _STAGGER * (self._placed % _STAGGERS)
        self._placed += 1
        nbytes = math.prod(shape) * dtype.itemsize
        block = np.empty(nbytes + _PAGE + stagger, np.uint8)
        start = -block.ctypes.data % _PAGE + stagger
        return block[start:start + nbytes].view(dtype).reshape(shape)

    def fill_ghosts(self) -> None:
        """Overwrite every periodic ghost, including what a row-layout update
        spilled there (a Dirichlet grid has none)."""
        for ghost, node in self._ghosts:
            ghost[...] = node

    def spread(self, per_field) -> "float | np.ndarray":
        """One value per field of the batch (one value without a batch axis):
        one float where they are all equal, else a row-layout array holding
        each field's value at its entries."""
        per_field = [float(v) for v in per_field]
        if all(v == per_field[0] for v in per_field):
            return per_field[0]
        # the field each row-layout entry lies in (a ghost column between two
        # fields counts to one of them); the rows leave one margin at each end
        # of the buffer
        first, size = (self.flat.size - self.rows.size) // 2, self.flat.size // len(per_field)
        return np.asarray(per_field)[(first + np.arange(self.rows.size)) // size]

    def nodes(self, rows: np.ndarray) -> np.ndarray:
        """The view of a contiguous row-layout array as the updated nodes
        (skips the ghost columns), with the batch axis if there is one."""
        if rows.shape != self.rows.shape or rows.strides != (rows.itemsize,):
            raise ValueError("not a contiguous row-layout array")
        inner = self.values[(...,) + self.updated]
        strides = tuple(s // inner.itemsize * rows.itemsize for s in inner.strides)
        return np.lib.stride_tricks.as_strided(rows, inner.shape, strides)

    def gradient(self) -> list[np.ndarray]:
        """Central-difference gradient components (u[i+e] - u[i-e]) / (2 h), in
        the row layout (entries at ghost columns are not meaningful)."""
        if self._grad is None:
            self._wide = [self.empty(fa.shape) for fa, *_ in self._axes]
            n = self.rows.size
            self._grad = [w[(w.size - n) // 2:][:n] for w in self._wide]
        for (fa, fb, _, _, inv_2h, _), o in zip(self._axes, self._wide):
            np.multiply(np.subtract(fa, fb, out=o), inv_2h, out=o)
        return self._grad

    def hessian(self) -> dict[tuple[int, int], np.ndarray]:
        """Second differences keyed by (i, j) with i <= j, in the row layout:
        ((u[i+e] + u[i-e]) - 2u) / h^2 on the diagonal and, in 2D, twice the
        central y-difference of the x-gradient, 2 uxy, the factor the
        diffusion's quadratic form takes. The cross difference reads the
        x-gradient that the last ``gradient`` call wrote, so call that first on
        the same values."""
        rows, dim = self.rows, len(self._axes)
        if self._hess is None:
            keys = [(ax, ax) for ax in range(dim)] + ([(0, 1)] if dim == 2 else [])
            self._hess = {k: self.empty(rows.shape) for k in keys}
            # 2u, in the cross entry's array where there is one (it is written last)
            self._twice = self._hess[(0, 1)] if dim == 2 else self.empty(rows.shape)
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
            np.multiply(o, self._cross_scale, out=o)
        return out


def gradient_arrays(field: ScalarField) -> list[np.ndarray]:
    """``Stencil.gradient`` of one field, into new arrays of ``grid.shape``
    (0 at Dirichlet boundary nodes)."""
    stencil, frame = Stencil(field.grid, field.values), _frame(field.grid)
    return [np.pad(stencil.nodes(g), frame) for g in stencil.gradient()]


def hessian_arrays(field: ScalarField) -> dict[tuple[int, int], np.ndarray]:
    """``Stencil.hessian`` of one field, into new arrays of ``grid.shape``
    (0 at Dirichlet boundary nodes), with the stencil's mixed entry 2 uxy
    halved to uxy (exactly: a power of 2 scales without rounding)."""
    stencil, frame = Stencil(field.grid, field.values), _frame(field.grid)
    stencil.gradient()  # the cross difference reads the x-gradient
    return {k: np.pad(stencil.nodes(v) * (0.5 if k == (0, 1) else 1.0), frame)
            for k, v in stencil.hessian().items()}


def _frame(grid: GridSpec) -> int:
    """The width of the frame around the nodes a step updates: 1 on a
    Dirichlet grid (its boundary nodes), 0 on a periodic one."""
    return int(grid.boundary is Boundary.DIRICHLET)


def interior_mask(grid: GridSpec) -> np.ndarray:
    """True where stencil updates apply (everywhere on periodic grids)."""
    frame = _frame(grid)
    return np.pad(np.ones(tuple(n - 2 * frame for n in grid.shape), dtype=bool), frame)


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
# The file formats live here: a field is written by ``save_field`` (read back
# by ``load_field``) and every JSON record, of the CLI and of the harness, by
# ``save_json``.

FLOAT_FMT = "%.17g"  # the CSV files' float format: it round-trips every float


def save_field(field: ScalarField, path) -> None:
    """Dump as CSV: a grid-describing header line, then values row-major."""
    g = field.grid
    extent = ";".join(FLOAT_FMT % a + "," + FLOAT_FMT % b for a, b in g.extent)
    res = ",".join(str(n) for n in g.resolution)
    header = (
        f"# grid dim={g.dim} extent={extent} N={res} "
        f"boundary={g.boundary.value} time={FLOAT_FMT % field.time}"
    )
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for v in field.values.ravel(order="C"):
            fh.write(FLOAT_FMT % v + "\n")


def save_json(payload: dict, path) -> None:
    """Dump a record as JSON: sorted keys, indented by 2, a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
