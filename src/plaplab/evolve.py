"""Explicit forward-Euler evolution of

    u_t = tr(A(grad u) D2 u) + a sqrt(|grad u|^2 + eps2^2) + f(x, t),

where a and eps2 are the operator's own (``OperatorSpec.a``/``eps2``, nonzero
for the biased families only) and the source f is ``Problem.source``.

Monotone under the CFL bound dt <= h_min^2 / (4 n Lambda), where Lambda is the
largest diffusion eigenvalue at the step's actual gradient (floored at 1);
the coefficients are never clamped. Snapshots are captured exactly at
requested times; runs are deterministic.

A solve holds its field in one ghost-padded buffer (``grid.Stencil``), steps
it in place and allocates its temporaries once; snapshots are copies. The
kernel makes every choice that depends only on the member, the grid and the
problem once per solve, and binds the step as two closures of ufunc calls over
those buffers, so no step decides anew which terms it has. ``solve``,
``step`` and ``cfl_dt`` all run them, the last two on a fresh copy of their
field.
Every temporary is laid out in the stencil's whole padded rows, so the
stencils and the update read contiguous memory. The step adds to the whole
rows, writes the Dirichlet edge and refills the ghosts, which overwrites what
spilled into the ghost columns. Ghost positions never count: the CFL maximum
is over a view of the interior nodes, the min/max that checks finiteness is
taken after the refill (when every ghost copies a node), and a ghost's squared
gradient is read as 1, so no coefficient is evaluated at a spurious zero
there (and no node reads a ghost's coefficients). The
everywhere-defined members with growth exponent 2 have one s at every node
(1, or eps1 for the biased family): their table is c alone.

Lambda is fixed per solve by one rule. At growth exponent 2 a member has one
s and a c of one sign at every gradient, its singular-gradient proxy included,
so the kernel takes (s0, c0) at |xi| = 1 once. Where c0 <= 0, Lambda = s0
exactly: the dt is fixed once per solve and no step takes a maximum. In 2D
that covers normalized(p <= 2), general_pq(p <= 2, 2), regularized_pq(p <= 2,
2, eps) and variational(2) (s = 1, c = (p - 2) r2 / w or p - 2); in 1D,
regularized_pq(p <= 2, 2, eps > 0), while the other 1D members at growth
exponent 2 step with one constant (below). Every other table member takes
Lambda = max(s + max(c, 0)) over the nodes at each step.

Singular-gradient policy
------------------------
A member that is not defined at a zero gradient takes the policy at nodes
whose discrete gradient magnitude is at or below a floor: the grid-tied
``eps_num`` when the growth exponent is below 2 (the prefactor is unbounded
near zero), and 0 otherwise (only exact zeros). Those nodes, found by flat
index in one pass, take their family's form at eps = eps_num
(``operators.rank_one_coeff_arrays``), whose eps = 0 form is the member itself.

One exception, in one dimension only: a member with growth exponent 2
(normalized, general and regularized with p' = 2 and eps = 0, variational(2),
and the biased infinity families with eps1 = 0) has the coefficient
s + c = s0 + c0 at every nonzero gradient. The kernel steps it with that one
constant at every node, singular ones included, which is the exact
one-dimensional reduction of the operator, and with the dt it fixes once per
solve from Lambda = s0 + max(c0, 0). It builds no coefficient table, so
eps_num plays no part (0 is accepted). The regularized form would put an O(h)
defect at isolated critical points and destroy the scheme's second-order
convergence there. At kappa = 0 (normalized(1), regularized_pq(1, 2, 0)) the
step takes no Hessian and adds only the source, if any. With no source and
no Dirichlet edge such a step adds nothing, and it leaves the field, its
ghosts and its (min, max) as the previous step left them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, BudgetExceededError, CflViolationError
from .grid import (  # gradient_arrays, hessian_arrays: bound here for perfbench/hooks.py
    Boundary,
    GridSpec,
    ScalarField,
    Stencil,
    gradient_arrays,  # noqa: F401
    hessian_arrays,  # noqa: F401
    interior_mask,
)
from .operators import OperatorSpec, rank_one_coeff_arrays, rank_one_coeffs

_CFL_SIGMA = 0.5  # dt_max = _CFL_SIGMA h_min^2 / (2 n Lambda)
logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverControls:
    snapshot_times: tuple[float, ...] = ()  # empty: capture at T only
    eps_num: Optional[float] = None         # None: min grid spacing
    max_steps: int = 20_000_000

    def __post_init__(self):
        if self.eps_num is not None and not (math.isfinite(self.eps_num) and self.eps_num >= 0):
            raise ValueError(f"eps_num must be finite and >= 0, got {self.eps_num}")
        ts = tuple(float(t) for t in self.snapshot_times)
        if not all(math.isfinite(t) for t in ts):
            raise ValueError(f"snapshot_times must be finite, got {ts}")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("snapshot_times must be sorted")
        object.__setattr__(self, "snapshot_times", ts)
        if type(self.max_steps) is not int or self.max_steps < 1:  # a bool is no count
            raise ValueError(f"max_steps must be an int >= 1, got {self.max_steps!r}")


@dataclass(frozen=True)
class Problem:
    """Cauchy-Dirichlet (or periodic) problem for one family member.

    ``initial`` maps spatial coordinates to u(x, 0). ``dirichlet`` maps
    coordinates plus time to the boundary trace; it is required (and only
    used) on Dirichlet grids, where it is evaluated elementwise at the
    boundary nodes only: its coordinate arguments are 1D arrays of those
    nodes, and it returns one value per node or a scalar. Both must agree
    at t = 0 on the boundary. ``source`` is f in the first-order term
    (f(x, t) in 1D, f(x, y, t) in 2D, evaluated on the whole mesh); None
    means f = 0. The rest of the first-order term comes from ``spec``.
    """

    spec: OperatorSpec
    grid: GridSpec
    initial: Callable
    T: float
    source: Optional[Callable] = None
    dirichlet: Optional[Callable] = None
    controls: SolverControls = dc_field(default_factory=SolverControls)

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T >= 0):
            raise ValueError(f"T must be finite and >= 0, got {self.T}")
        if any(t < 0 or t > self.T for t in self.controls.snapshot_times):
            raise ValueError("snapshot times must lie within [0, T]")
        if self.grid.boundary is Boundary.DIRICHLET:
            if self.dirichlet is None:
                raise ValueError("Dirichlet grids need boundary data")
            self._check_compatibility()

    def _check_compatibility(self):
        u0 = np.broadcast_to(np.asarray(self.initial(*self.grid.meshes()), float),
                             self.grid.shape)
        edge, coords = _boundary_nodes(self.grid, interior_mask(self.grid))
        g0 = np.asarray(self.dirichlet(*coords, 0.0), float)
        scale = 1.0 + np.max(np.abs(u0))
        if np.max(np.abs(u0[edge] - g0)) > 1e-9 * scale:
            raise ValueError("initial and Dirichlet data disagree at t = 0 on the boundary")

    def initial_field(self) -> ScalarField:
        return ScalarField.from_function(self.grid, self.initial, 0.0)


@dataclass(frozen=True)
class SolveStats:
    steps: int
    min_dt: float
    overshoot: float
    final_time: float


@dataclass(frozen=True)
class SolveResult:
    snapshots: list
    stats: SolveStats


def _boundary_nodes(grid: GridSpec, mask: np.ndarray):
    """Index and coordinates (row-major) of the nodes outside ``mask``."""
    edge = np.nonzero(~mask)
    return edge, tuple(m[edge] for m in grid.meshes())


class _Kernel:
    """One solve's step, bound once. The field ``u`` is the grid view of one
    ghost-padded buffer, which the step works on in its row view
    (``grid.Stencil``). Every full-mesh temporary lives in the row layout and
    is allocated once; the entries at ghost columns are garbage that no node
    reads.

    ``__init__`` makes every choice that depends only on the member, the grid
    and the problem, and binds the step as two closures over those buffers and
    constants: ``cfl_bound()`` takes what the step needs of ``u`` and returns
    its stable dt, then ``advance(t, dt, t_new)`` steps ``u`` by dt, writes the
    boundary data at t_new, refills the ghosts and returns the new (min, max),
    which also serve as the finiteness check. On a Dirichlet grid
    ``edge_data`` holds the boundary values the last step wrote."""

    def __init__(self, problem: Problem, values: np.ndarray):
        grid, spec, source = problem.grid, problem.spec, problem.source
        stencil = Stencil(grid, values)
        u = self.u = stencil.values
        rows = stencil.rows
        h_min = min(grid.spacing)
        eps_num = h_min if problem.controls.eps_num is None else problem.controls.eps_num
        floor = eps_num if spec.growth_exponent < 2.0 else 0.0
        floor2 = floor * floor  # r2 <= floor2 takes the singular-gradient policy
        cfl_scale = _CFL_SIGMA * h_min * h_min / (2.0 * grid.dim)  # = dt_max * Lambda
        s = c = None  # a table member's coefficients, as its last cfl_bound took them
        # Lambda where it is fixed per solve (see the module docstring): at growth
        # exponent 2, one s and a c of the sign of c0 at every gradient
        kappa = lam = None
        if spec.growth_exponent == 2.0:
            s0, c0 = rank_one_coeffs(spec, 1.0)
            if grid.dim == 1 and not spec.everywhere_defined:
                kappa, lam = s0 + c0, s0 + max(c0, 0.0)
            elif c0 <= 0.0:
                lam = s0
        dt_fixed = None if lam is None else cfl_scale / max(lam, 1.0)
        n = rows.shape
        r2, diff, work, c_out = (np.empty(n) for _ in range(4))
        zero = np.empty(n, bool)
        diff_nodes, work_nodes = stencil.nodes(diff), stencil.nodes(work)
        edge = None  # the Dirichlet boundary nodes, and the values the last step wrote there
        if grid.boundary is Boundary.DIRICHLET:
            edge, edge_coords = _boundary_nodes(grid, interior_mask(grid))
            edge_data = self.edge_data = np.empty(edge[0].size)
        # the nodes the CFL maximum sees: all on periodic grids, the interior on
        # Dirichlet grids (the boundary nodes carry no update)
        inner = (slice(None) if edge is None else slice(1, -1),) * grid.dim
        work_inner = stencil.nodes(work)[inner]

        # -- cfl_bound: the gradient, for a table or a first-order term, then (s, c)
        if kappa is None or spec.a != 0.0:
            gradient, grads = stencil.gradient, stencil.gradient()
            if grid.dim == 1:  # no ghost columns
                (ux,) = grads

                def take_r2():
                    gradient(grads)
                    np.multiply(ux, ux, out=r2)
            else:
                (ux, uy), ux2, uy2 = grads, np.empty(n), np.empty(n)  # squared components
                on_node = np.zeros(n, bool)
                stencil.nodes(on_node)[...] = True
                ghosts = np.flatnonzero(~on_node)  # the ghost columns inside the rows

                def take_r2():
                    gradient(grads)
                    np.multiply(ux, ux, out=ux2)
                    np.multiply(uy, uy, out=uy2)
                    np.add(ux2, uy2, out=r2)
                    r2[ghosts] = 1.0  # a ghost column's r2 may be 0; keep r2 ** -x finite

        if kappa is not None:  # no table: the gradient only for the first-order term
            if spec.a == 0.0:
                def cfl_bound():
                    return dt_fixed
            else:
                def cfl_bound():
                    take_r2()
                    return dt_fixed
        else:
            if spec.everywhere_defined:
                def coeffs():
                    return rank_one_coeff_arrays(spec, r2, out=c_out)
            else:
                def coeffs():
                    """The singular-gradient policy of the module docstring, at the
                    flat indices of the singular nodes only."""
                    sing = np.flatnonzero(np.less_equal(r2, floor2, out=zero))
                    if sing.size == 0:
                        return rank_one_coeff_arrays(spec, r2, out=c_out)
                    if eps_num <= 0.0:
                        raise ValueError("eps_num = 0 cannot regularize singular-gradient nodes")
                    work[...] = r2  # r2 with 1.0 at the singular nodes
                    work[sing] = 1.0
                    s, c = rank_one_coeff_arrays(spec, work, out=c_out)
                    s[sing], c[sing] = rank_one_coeff_arrays(spec, r2[sing], eps=eps_num)
                    return s, c

            def take_coeffs():
                nonlocal s, c
                take_r2()
                # drop the last step's (s, c) first: the allocator then reuses their
                # memory instead of trimming and refaulting the heap every step
                s = c = None
                s, c = coeffs()

            if dt_fixed is not None:
                def cfl_bound():
                    take_coeffs()
                    return dt_fixed
            else:
                def cfl_bound():
                    take_coeffs()
                    np.add(s, np.maximum(c, 0.0, out=work), out=work)
                    return cfl_scale / max(float(work_inner.max()), 1.0)

        # -- advance: rate(t), the sum of the terms present, in the row layout, is
        # diffusion + (a sqrt(|Du|^2 + eps2^2) over the rows + f on the nodes)
        rate = None
        if kappa != 0.0:  # kappa = 0 has no diffusion term, so no Hessian
            hessian, hess = stencil.hessian, stencil.hessian()
            uxx = hess[(0, 0)]
            if kappa is not None:
                def rate(t):
                    hessian(hess)
                    return np.multiply(uxx, kappa, out=diff)
            elif grid.dim == 1:
                def rate(t):
                    hessian(hess)
                    return np.multiply(np.add(s, c, out=diff), uxx, out=diff)
            else:
                uxy, uyy = hess[(0, 1)], hess[(1, 1)]

                def rate(t):
                    # quad = (ux^2 uxx + 2 ux uy uxy + uy^2 uyy) / r2, with r2 = 0 read as 1
                    hessian(hess)
                    np.multiply(ux2, uxx, out=diff)
                    np.multiply(np.multiply(ux, 2.0, out=work), uy, out=work)
                    np.add(diff, np.multiply(work, uxy, out=work), out=diff)
                    np.add(diff, np.multiply(uy2, uyy, out=work), out=diff)
                    np.equal(r2, 0.0, out=zero)
                    np.divide(diff, np.add(r2, zero, out=work), out=diff)  # r2 >= 0
                    np.multiply(diff, c, out=diff)
                    np.add(uxx, uyy, out=work)
                    return np.add(np.multiply(work, s, out=work), diff, out=diff)
        diffusion, meshes = rate, grid.meshes()
        if spec.a != 0.0:  # only the biased families, whose diffusion never vanishes (kappa = 1)
            a, eps2_sq = spec.a, spec.eps2 * spec.eps2
            if source is None:
                def rate(t):
                    d = diffusion(t)
                    np.sqrt(np.add(r2, eps2_sq, out=work), out=work)
                    return np.add(d, np.multiply(work, a, out=work), out=diff)
            else:
                def rate(t):
                    d = diffusion(t)
                    np.sqrt(np.add(r2, eps2_sq, out=work), out=work)
                    np.multiply(work, a, out=work)
                    np.add(work_nodes, np.asarray(source(*meshes, t), float), out=work_nodes)
                    return np.add(d, work, out=diff)
        elif source is not None and diffusion is not None:
            def rate(t):
                d = diffusion(t)
                np.add(diff_nodes, np.asarray(source(*meshes, t), float), out=diff_nodes)
                return d
        elif source is not None:
            def rate(t):
                diff_nodes[...] = np.asarray(source(*meshes, t), float)
                return diff

        fill_ghosts = stencil.fill_ghosts
        if edge is None:
            def settle(t_new):
                fill_ghosts()  # every ghost now copies a node
                return _bounds(rows, u, t_new)
        else:
            dirichlet = problem.dirichlet

            def settle(t_new):
                edge_data[...] = np.asarray(dirichlet(*edge_coords, t_new), float)
                u[edge] = edge_data
                fill_ghosts()
                return _bounds(rows, u, t_new)

        if rate is None and edge is None:
            # a step that adds nothing leaves the field, its ghosts and its
            # (min, max) as they were
            unchanged = float(rows.min()), float(rows.max())

            def advance(t, dt, t_new):
                return unchanged
        elif rate is None:
            def advance(t, dt, t_new):
                return settle(t_new)
        else:
            def advance(t, dt, t_new):
                r = rate(t)
                np.add(rows, np.multiply(r, dt, out=r), out=rows)  # spills into the ghost columns
                return settle(t_new)

        self.cfl_bound, self.advance = cfl_bound, advance


def _bounds(rows: np.ndarray, u: np.ndarray, t: float) -> tuple[float, float]:
    """(min, max) of the rows after the ghost refill (every ghost copies a node);
    a non-finite one raises ``BlowUpError`` at the first non-finite node of ``u``."""
    lo, hi = float(rows.min()), float(rows.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = np.argwhere(~np.isfinite(u))[0]
        raise BlowUpError(tuple(int(i) for i in bad), t)
    return lo, hi


def cfl_dt(problem: Problem, fld: ScalarField) -> float:
    """Stable time step for the current field (same coefficients as ``step``)."""
    if fld.grid != problem.grid:
        raise ValueError("field is not on the problem's grid")
    return _Kernel(problem, fld.values).cfl_bound()


def step(fld: ScalarField, problem: Problem, dt: float) -> ScalarField:
    """One forward-Euler step; rejects dt above the stability bound."""
    if fld.grid != problem.grid:
        raise ValueError("field is not on the problem's grid")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if fld.time + dt > problem.T + 1e-9 * max(dt, problem.T, 1.0):
        raise ValueError(f"step past the horizon: t = {fld.time:.6g}, T = {problem.T:.6g}")
    kernel = _Kernel(problem, fld.values)
    dt_max = kernel.cfl_bound()
    if dt > dt_max * (1.0 + 1e-9):
        raise CflViolationError(f"dt = {dt:.3e} exceeds CFL bound {dt_max:.3e}")
    kernel.advance(fld.time, dt, fld.time + dt)
    return ScalarField(problem.grid, kernel.u, fld.time + dt)


def solve(problem: Problem, dt_override: Optional[float] = None) -> SolveResult:
    """March from t = 0 to T, capturing snapshots exactly at requested times.

    Each step takes the CFL bound, or ``dt_override`` (finite and > 0) where
    that is within it, clipped at capture times; the first step the bound wins
    is logged once. Snapshots are copies of the solve's own buffer.
    """
    if dt_override is not None and not (math.isfinite(dt_override) and dt_override > 0):
        raise ValueError(f"dt_override must be finite and > 0, got {dt_override}")
    requested = problem.controls.snapshot_times or (problem.T,)
    requested = tuple(sorted(set(requested)))
    targets = tuple(sorted(set(requested + (problem.T,))))
    initial = problem.initial_field()
    kernel = _Kernel(problem, initial.values)
    cfl_bound, advance = kernel.cfl_bound, kernel.advance
    max_steps = problem.controls.max_steps
    dirichlet = problem.grid.boundary is Boundary.DIRICHLET
    snapshots = []
    data_lo = float(np.min(initial.values))
    data_hi = float(np.max(initial.values))
    overshoot = 0.0
    steps = 0
    min_dt = math.inf
    t = initial.time
    t_eps = 1e-12 * max(1.0, problem.T)
    capped = False  # the bound has won a step (logged once)
    for t_target in targets:
        t_stop = t_target - t_eps
        while t < t_stop:
            dt = cfl_bound()
            if dt_override is not None:
                if dt_override <= dt * (1.0 + 1e-9):
                    dt = dt_override
                elif not capped:
                    capped = True
                    logger.warning("dt_override = %.3e exceeds the CFL bound %.3e at t = %.6g;"
                                   " stepping at the bound", dt_override, dt, t)
            t_new = t + dt
            if dt >= t_target - t - t_eps:
                dt, t_new = t_target - t, t_target
            lo, hi = advance(t, dt, t_new)
            t = t_new
            steps += 1
            min_dt = min(min_dt, dt)
            if steps > max_steps:
                raise BudgetExceededError(
                    f"horizon T = {problem.T} unreachable within {max_steps} steps"
                )
            if dirichlet:
                data_lo = min(data_lo, float(np.min(kernel.edge_data)))
                data_hi = max(data_hi, float(np.max(kernel.edge_data)))
            overshoot = max(overshoot, hi - data_hi, data_lo - lo, 0.0)
        if t_target in requested:
            snapshots.append(ScalarField(problem.grid, kernel.u, t))
    stats = SolveStats(
        steps=steps,
        min_dt=min_dt if steps else 0.0,
        overshoot=overshoot,
        final_time=t,
    )
    return SolveResult(snapshots=snapshots, stats=stats)
