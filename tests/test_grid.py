import math

import numpy as np
import pytest

from plaplab import (
    Boundary,
    GridMismatchError,
    GridSpec,
    ScalarField,
    load_field,
    save_field,
    sup_diff,
)
from plaplab.grid import Stencil, gradient_arrays, hessian_arrays, interior_mask, restrict_to


def line_field(a, b, n, boundary, fn, time=0.0):
    grid = GridSpec.line(a, b, n, boundary)
    return ScalarField.from_function(grid, fn, time)


class TestGridSpec:
    def test_spacing_conventions(self):
        per = GridSpec.line(0.0, 1.0, 10, Boundary.PERIODIC)
        assert per.spacing == (0.1,)
        dir_ = GridSpec.line(0.0, 1.0, 11, Boundary.DIRICHLET)
        assert dir_.spacing == (0.1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec.line(0.0, 1.0, 4, Boundary.PERIODIC)
        with pytest.raises(ValueError):
            GridSpec.line(1.0, 0.0, 16, Boundary.PERIODIC)
        with pytest.raises(ValueError):
            GridSpec(3, ((0, 1),) * 3, (8,) * 3, Boundary.PERIODIC)
        for extent, resolution in ((((0, 1), (0, 1)), (8,)), (((0, 1),), (8, 8))):
            with pytest.raises(ValueError, match="one entry per axis"):
                GridSpec(1, extent, resolution, Boundary.PERIODIC)

    def test_non_finite_extent_rejected(self):
        # an infinite extent gave an infinite spacing and NaN node coordinates
        for a, b in ((0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
                     (0.0, math.nan), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="finite length"):
                GridSpec.line(a, b, 16, Boundary.DIRICHLET)
            with pytest.raises(ValueError, match="finite length"):
                GridSpec.box(((0.0, 1.0), (a, b)), (8, 8), Boundary.PERIODIC)

    def test_whole_number_dim_and_resolution(self):
        # 1.7 and 64.9 were truncated to a 64-node 1D grid
        for dim, n in ((1.7, 64), (1, 64.9), (1, math.nan), (True, 64), (1, "64")):
            with pytest.raises(ValueError, match="whole number"):
                GridSpec(dim, ((0, 1),), (n,), Boundary.PERIODIC)
        for dim, n in ((1, 64), (1.0, 64.0), (np.int64(1), np.int32(64)),
                       (1, np.float64(64.0))):
            grid = GridSpec(dim, ((0, 1),), (n,), Boundary.PERIODIC)
            assert (grid.dim, grid.resolution) == (1, (64,))
            assert type(grid.dim) is int and type(grid.resolution[0]) is int

    def test_counts_beyond_int64_rejected(self):
        # a 401-digit count raised an OverflowError in float(), and 1e30 nodes
        # passed as a whole number
        for n in (10 ** 400, 2 ** 63, -2 ** 63, 1e30, -1e30):
            with pytest.raises(ValueError, match="whole number"):
                GridSpec(1, ((0, 1),), (n,), Boundary.PERIODIC)
        with pytest.raises(ValueError, match="whole number"):
            GridSpec(10 ** 400, ((0, 1),), (8,), Boundary.PERIODIC)

    @pytest.mark.parametrize("extent", [((0, 1, 2),), ((0,),), ((),)])
    def test_extent_entry_must_be_a_pair(self, extent):
        # [[0, 1, 2]] raised "too many values to unpack (expected 2)"
        with pytest.raises(ValueError, match=r"each extent entry must be a pair \[a, b\]"):
            GridSpec(1, extent, (8,), Boundary.PERIODIC)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_meshes_are_built_per_call(self, dim):
        # the meshes were one cached, read-only tuple shared by every caller
        grid = GridSpec(dim, ((0.0, 1.0),) * dim, (9,) * dim, Boundary.DIRICHLET)
        first, second = grid.meshes(), grid.meshes()
        for a, b in zip(first, second, strict=True):
            assert a is not b and a.flags.writeable and b.flags.writeable
            np.testing.assert_array_equal(a, b)
            a[...] = -1.0
        for b, axis in zip(second, range(dim), strict=True):
            want = grid.axis_coords(axis).reshape((-1,) + (1,) * (dim - 1 - axis))
            np.testing.assert_array_equal(b, np.broadcast_to(want, grid.shape))

    def test_refine_nests_nodes(self):
        g = GridSpec.line(0.0, 1.0, 9, Boundary.DIRICHLET)
        f = g.refine()
        assert f.resolution == (17,)
        np.testing.assert_allclose(f.axis_coords(0)[::2], g.axis_coords(0), atol=1e-15)
        gp = GridSpec.line(0.0, 1.0, 8, Boundary.PERIODIC)
        fp = gp.refine()
        assert fp.resolution == (16,)
        np.testing.assert_allclose(fp.axis_coords(0)[::2], gp.axis_coords(0), atol=1e-15)


class TestField:
    def test_shape_and_finiteness_checks(self):
        grid = GridSpec.line(0.0, 1.0, 8, Boundary.PERIODIC)
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros(9))
        with pytest.raises(ValueError):
            ScalarField(grid, np.full(8, np.nan))

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf, -0.5])
    def test_time_must_be_finite_and_nonnegative(self, time):
        grid = GridSpec.line(0.0, 1.0, 8, Boundary.PERIODIC)
        with pytest.raises(ValueError, match="time must be finite"):
            ScalarField(grid, np.zeros(8), time)

    def test_immutable(self):
        f = line_field(0.0, 1.0, 8, Boundary.PERIODIC, lambda x: x)
        with pytest.raises(ValueError):
            f.values[0] = 5.0


class TestGradient:
    def test_affine_exact(self):
        f = line_field(0.0, 1.0, 11, Boundary.DIRICHLET, lambda x: 3.0 * x)
        g = gradient_arrays(f)[0]
        for i in range(1, 10):
            assert g[i] == pytest.approx(3.0, abs=1e-13)

    def test_constant_zero(self):
        f = line_field(0.0, 1.0, 11, Boundary.DIRICHLET, lambda x: np.full_like(x, 7.0))
        assert gradient_arrays(f)[0][5] == 0.0

    def test_sine_periodic_at_origin(self):
        n = 64
        f = line_field(0.0, 2.0 * math.pi, n, Boundary.PERIODIC, np.sin)
        h = f.grid.spacing[0]
        g = gradient_arrays(f)[0][0]
        assert g == pytest.approx(math.sin(h) / h, abs=1e-14)
        assert g == pytest.approx(1.0 - h * h / 6.0, abs=h ** 4)

    def test_linearity(self):
        grid = GridSpec.line(0.0, 1.0, 16, Boundary.PERIODIC)
        rng = np.random.default_rng(0)
        u = ScalarField(grid, rng.normal(size=16))
        v = ScalarField(grid, rng.normal(size=16))
        w = ScalarField(grid, 2.0 * u.values + 3.0 * v.values)
        got = gradient_arrays(w)[0]
        want = 2.0 * gradient_arrays(u)[0] + 3.0 * gradient_arrays(v)[0]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_periodic_shift_equivariance(self):
        grid = GridSpec.line(0.0, 1.0, 16, Boundary.PERIODIC)
        rng = np.random.default_rng(1)
        vals = rng.normal(size=16)
        f = ScalarField(grid, vals)
        g = ScalarField(grid, np.roll(vals, 1))
        np.testing.assert_array_equal(gradient_arrays(g)[0], np.roll(gradient_arrays(f)[0], 1))
        np.testing.assert_array_equal(hessian_arrays(g)[(0, 0)],
                                      np.roll(hessian_arrays(f)[(0, 0)], 1))


class TestHessian:
    def test_quadratic_2d(self):
        grid = GridSpec.box(((0, 1), (0, 1)), (17, 17), Boundary.DIRICHLET)
        f = ScalarField.from_function(grid, lambda x, y: x * x)
        H = hessian_arrays(f)
        got = [H[k][8, 8] for k in ((0, 0), (0, 1), (1, 1))]
        np.testing.assert_allclose(got, [2.0, 0.0, 0.0], atol=1e-11)

    def test_cross_term(self):
        grid = GridSpec.box(((0, 1), (0, 1)), (17, 17), Boundary.DIRICHLET)
        f = ScalarField.from_function(grid, lambda x, y: x * y)
        H = hessian_arrays(f)
        got = [H[k][8, 8] for k in ((0, 0), (0, 1), (1, 1))]
        np.testing.assert_allclose(got, [0.0, 1.0, 0.0], atol=1e-12)

    def test_cubic_second_difference_exact(self):
        # symmetric second difference of x^3 at x0 is exactly 6 x0
        grid = GridSpec.line(0.0, 2.0, 21, Boundary.DIRICHLET)
        f = ScalarField.from_function(grid, lambda x: x ** 3)
        assert grid.spacing[0] == pytest.approx(0.1)
        assert hessian_arrays(f)[(0, 0)][10] == pytest.approx(6.0, abs=1e-10)


class TestEmpty:
    """``Stencil.empty`` places each array page-aligned plus 320 bytes times the
    arrays the stencil placed before it, modulo 12; the field buffer is the first."""

    def test_offsets_cycle_through_twelve_staggers(self):
        stencil = Stencil(GridSpec.line(0.0, 1.0, 16, Boundary.PERIODIC), np.zeros(16))
        arrays = [stencil._buffer] + [stencil.empty((16,)) for _ in range(13)]
        assert [a.ctypes.data % 4096 for a in arrays] == [320 * (k % 12) for k in range(14)]

    @pytest.mark.parametrize("shape, dtype",
                             [((16,), float), ((3, 5), bool), ((2, 3, 4), int)])
    def test_shape_and_dtype(self, shape, dtype):
        stencil = Stencil(GridSpec.line(0.0, 1.0, 16, Boundary.PERIODIC), np.zeros(16))
        a = stencil.empty(shape, dtype)
        assert a.shape == shape and a.dtype == np.dtype(dtype)
        assert a.flags.c_contiguous and a.flags.writeable and a.ctypes.data % 4096 == 320
        a[...] = 1
        assert np.all(a == 1)


def neighbour_reference(field):
    """Gradient and Hessian by explicit neighbour indices, node by node.

    Periodic grids take neighbours modulo the resolution; on Dirichlet grids
    only interior nodes, whose neighbours all exist, are filled (NaN elsewhere).
    """
    g, u = field.grid, field.values
    periodic = g.boundary is Boundary.PERIODIC
    grads = [np.full(g.shape, np.nan) for _ in range(g.dim)]
    keys = [(k, k) for k in range(g.dim)] + ([(0, 1)] if g.dim == 2 else [])
    hess = {key: np.full(g.shape, np.nan) for key in keys}
    for idx in np.ndindex(*g.shape):
        if not periodic and any(i in (0, n - 1) for i, n in zip(idx, g.shape)):
            continue

        def at(*offset):
            return u[tuple((i + o) % n for i, o, n in zip(idx, offset, g.shape))]

        for ax in range(g.dim):
            h = g.spacing[ax]
            fwd = tuple(1 if k == ax else 0 for k in range(g.dim))
            bwd = tuple(-o for o in fwd)
            grads[ax][idx] = (at(*fwd) - at(*bwd)) / (2.0 * h)
            hess[(ax, ax)][idx] = (at(*fwd) - 2.0 * u[idx] + at(*bwd)) / (h * h)
        if g.dim == 2:
            hx, hy = g.spacing
            hess[(0, 1)][idx] = (at(1, 1) + at(-1, -1) - at(1, -1) - at(-1, 1)) / (4.0 * hx * hy)
    return grads, hess


class TestStencilReference:
    GRIDS = {
        1: lambda b: GridSpec.line(-1.0, 2.0, 13, b),
        2: lambda b: GridSpec.box(((0.0, 1.0), (-1.0, 2.0)), (9, 12), b),
    }

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_random_field_matches_neighbour_indices(self, dim, boundary):
        grid = self.GRIDS[dim](boundary)
        rng = np.random.default_rng(10 * dim + len(boundary.value))
        f = ScalarField(grid, rng.normal(size=grid.shape))
        want_grad, want_hess = neighbour_reference(f)
        mask = interior_mask(grid)
        assert mask.all() == (boundary is Boundary.PERIODIC)
        # a decoy of the same shape right before: a ghost cell the stencil
        # forgot to fill then holds a stale decoy value, not one of this field
        hessian_arrays(ScalarField(grid, rng.normal(size=grid.shape)))
        got_hess = hessian_arrays(f)
        got_grad = gradient_arrays(f)
        assert len(got_grad) == dim and set(got_hess) == set(want_hess)
        for got, want in zip(got_grad, want_grad):
            np.testing.assert_allclose(got[mask], want[mask], rtol=1e-13, atol=1e-12)
        for key, want in want_hess.items():
            np.testing.assert_allclose(got_hess[key][mask], want[mask], rtol=1e-13, atol=1e-12)
        # a Dirichlet boundary node takes no difference: its entries are 0
        for got in got_grad + list(got_hess.values()):
            assert got.shape == grid.shape and not got[~mask].any()
        if dim == 2 and boundary is Boundary.PERIODIC:
            # the cross term at opposite corners wraps in both axes at once
            n, m = grid.shape
            for corner in ((0, 0), (n - 1, m - 1), (0, m - 1), (n - 1, 0)):
                assert got_hess[(0, 1)][corner] == pytest.approx(
                    want_hess[(0, 1)][corner], rel=1e-13, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_row_layout(self, dim):
        # the rows run from the first updated node to the last: on a periodic
        # grid every node, n entries in 1D and n0 (n1 + 2) - 2 in 2D (inner
        # ghost columns); on a Dirichlet grid, its own frame, the interior,
        # n - 2 entries in 1D and (n0 - 2) n1 - 2 in 2D (inner boundary columns)
        for boundary in Boundary:
            grid = self.GRIDS[dim](boundary)
            values = np.arange(float(np.prod(grid.shape))).reshape(grid.shape)
            stencil = Stencil(grid, values)
            n = grid.shape
            if boundary is Boundary.PERIODIC:
                rows, inner = (n[0],) if dim == 1 else (n[0] * (n[1] + 2) - 2,), values
            else:
                rows = (n[0] - 2,) if dim == 1 else ((n[0] - 2) * n[1] - 2,)
                inner = values[(slice(1, -1),) * dim]
            assert stencil.rows.shape == rows
            assert stencil.rows.flags.c_contiguous
            np.testing.assert_array_equal(stencil.values, values)
            np.testing.assert_array_equal(stencil.values[stencil.updated], inner)
            np.testing.assert_array_equal(stencil.nodes(stencil.rows), inner)
            assert stencil.nodes(stencil.gradient()[0]).shape == inner.shape
            for bad in (np.empty(stencil.rows.size + 1), np.empty(2 * stencil.rows.size)[::2]):
                with pytest.raises(ValueError, match="row-layout"):
                    stencil.nodes(bad)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_flat_view_and_ghost_columns(self, dim):
        # flat is the whole buffer: every node, and on a periodic grid ghosts
        # that copy nodes; ghost_columns are the rows' entries that are no
        # updated node (none in 1D)
        for boundary in Boundary:
            grid = self.GRIDS[dim](boundary)
            values = np.arange(float(np.prod(grid.shape))).reshape(grid.shape)
            stencil = Stencil(grid, values)
            if boundary is Boundary.DIRICHLET:
                np.testing.assert_array_equal(stencil.flat, values.ravel())
            else:
                assert stencil.flat.size == np.prod([n + 2 for n in grid.shape])
                assert set(stencil.flat.tolist()) == set(values.ravel().tolist())
            marked = stencil.rows.copy()
            stencil.nodes(marked)[...] = -1.0
            np.testing.assert_array_equal(stencil.ghost_columns, np.flatnonzero(marked != -1.0))
            assert (stencil.ghost_columns.size > 0) == (dim == 2)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_batch_is_each_field_alone(self, dim):
        # a batch of fields lies in one buffer like the rows of a grid with one
        # more axis: each field's differences are bitwise its own stencil's, and
        # the frame entries between two fields are ghost columns
        for boundary in Boundary:
            grid = self.GRIDS[dim](boundary)
            rng = np.random.default_rng(3 * dim + len(boundary.value))
            fields = rng.normal(size=(3,) + grid.shape)
            batch = Stencil(grid, fields)
            assert batch.values.shape == fields.shape
            grads = [batch.nodes(g) for g in batch.gradient()]
            hess = {k: batch.nodes(v) for k, v in batch.hessian().items()}
            marked = batch.rows.copy()
            batch.nodes(marked)[...] = -1.0
            np.testing.assert_array_equal(batch.ghost_columns, np.flatnonzero(marked != -1.0))
            for b, values in enumerate(fields):
                alone = Stencil(grid, values)
                for got, want in zip(grads, alone.gradient(), strict=True):
                    np.testing.assert_array_equal(got[b], alone.nodes(want))
                for key, want in alone.hessian().items():
                    np.testing.assert_array_equal(hess[key][b], alone.nodes(want))
            # one value per field: a float where all agree, else each field's own
            assert batch.spread([2.0, 2.0, 2.0]) == 2.0
            owner = batch.nodes(batch.spread([0.0, 1.0, 2.0]))
            for b in range(3):
                assert (owner[b] == b).all()

    def test_cross_difference_reads_the_gradient(self):
        # the stencil's mixed entry is twice the y-difference of the last
        # x-gradient, 2 uxy, and hessian_arrays halves it exactly
        for boundary in Boundary:
            grid = self.GRIDS[2](boundary)
            X, Y = grid.meshes()
            field = ScalarField(grid, np.sin(X) * np.cos(2.0 * Y))
            stencil = Stencil(grid, field.values)
            with pytest.raises(ValueError, match="gradient first"):
                stencil.hessian()
            stencil.gradient()
            twice = stencil.nodes(stencil.hessian()[(0, 1)])
            np.testing.assert_array_equal(hessian_arrays(field)[(0, 1)][stencil.updated],
                                          0.5 * twice)


class TestNorms:
    def test_identical_fields(self):
        f = line_field(0.0, 1.0, 8, Boundary.PERIODIC, np.sin)
        assert sup_diff(f, f) == 0.0

    def test_grid_mismatch(self):
        f = line_field(0.0, 1.0, 8, Boundary.PERIODIC, np.sin)
        g = line_field(0.0, 1.0, 16, Boundary.PERIODIC, np.sin)
        with pytest.raises(GridMismatchError):
            sup_diff(f, g)


class TestPersistence:
    def test_roundtrip_1d(self, tmp_path):
        f = line_field(0.0, 2.0 * math.pi, 32, Boundary.PERIODIC, np.sin, time=0.25)
        path = tmp_path / "field.csv"
        save_field(f, path)
        g = load_field(path)
        assert g.grid == f.grid
        assert g.time == f.time
        np.testing.assert_array_equal(g.values, f.values)

    def test_roundtrip_2d(self, tmp_path):
        grid = GridSpec.box(((0, 1), (-1, 1)), (8, 12), Boundary.DIRICHLET)
        f = ScalarField.from_function(grid, lambda x, y: np.sin(x) * y, time=1.0 / 3.0)
        path = tmp_path / "field2.csv"
        save_field(f, path)
        g = load_field(path)
        assert g.grid == f.grid
        np.testing.assert_array_equal(g.values, f.values)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("eps,gap\n1,2\n")
        with pytest.raises(ValueError):
            load_field(path)

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_rejects_a_non_finite_time(self, tmp_path, time):
        path = tmp_path / "t.csv"
        save_field(line_field(0.0, 1.0, 8, Boundary.PERIODIC, lambda x: x, time=0.5), path)
        path.write_text(path.read_text().replace("time=0.5", f"time={time}"))
        with pytest.raises(ValueError, match="time must be finite"):
            load_field(path)

    def test_rejects_an_infinite_extent(self, tmp_path):
        # the header a solve on an infinite extent used to write
        path = tmp_path / "x.csv"
        save_field(line_field(0.0, 1.0, 8, Boundary.PERIODIC, lambda x: 0.0 * x + 1.0), path)
        path.write_text(path.read_text().replace("extent=0,1", "extent=0,inf"))
        with pytest.raises(ValueError, match="finite length"):
            load_field(path)

    def test_header_format(self, tmp_path):
        f = line_field(0.0, 1.0, 8, Boundary.DIRICHLET, lambda x: x, time=0.5)
        path = tmp_path / "h.csv"
        save_field(f, path)
        head = path.read_text().splitlines()[0]
        assert head.startswith("# grid dim=1 extent=0,1 N=8 boundary=dirichlet time=0.5")


class TestRestrict:
    def test_restriction_matches_samples(self):
        g = GridSpec.line(0.0, 1.0, 9, Boundary.DIRICHLET)
        fine = ScalarField.from_function(g.refine(), lambda x: x * x, time=1.0)
        coarse = restrict_to(fine, g)
        np.testing.assert_allclose(coarse.values, g.axis_coords(0) ** 2, atol=1e-15)
        with pytest.raises(GridMismatchError):
            restrict_to(fine, GridSpec.line(0.0, 1.0, 10, Boundary.DIRICHLET))
