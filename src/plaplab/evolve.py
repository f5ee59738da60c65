"""Explicit forward-Euler evolution of

    u_t = tr(A(grad u) D2 u) + a sqrt(|grad u|^2 + eps2^2) + f(x, t),

where a and eps2 are the operator's own (``OperatorSpec.a``/``eps2``, nonzero
for the biased families only) and the source f is ``Problem.source``.

Monotone under the CFL bound dt <= h_min^2 / (4 n Lambda), where Lambda is the
largest diffusion eigenvalue at the step's actual gradient (floored at 1);
the coefficients are never clamped. Snapshots are captured exactly at
requested times; runs are deterministic.

A solve holds its field in one ghost-padded buffer (``grid.Stencil``), steps
it in place and allocates its temporaries once; snapshots are copies.
``step`` and ``cfl_dt`` run the same kernel on a fresh copy of their field.
Every temporary is laid out in the stencil's whole padded rows, so the
stencils and the update read contiguous memory. The step adds to the whole
rows, writes the Dirichlet edge and refills the ghosts, which overwrites what
spilled into the ghost columns. Ghost positions never count: the CFL maximum
(over a view of the interior nodes) and the singular-gradient decision see
grid nodes only, the min/max that checks finiteness is taken after the refill
(when every ghost copies a node), and a ghost's squared gradient is read as
1, so no coefficient is evaluated at a spurious zero there. The
everywhere-defined members with growth exponent 2 have one s at every node
(1, or eps1 for the biased family): their table is c alone, and
Lambda = s + max(max c, 0).

Singular-gradient policy
------------------------
A member that is not defined at a zero gradient takes the policy at nodes
whose discrete gradient magnitude is at or below a floor: the grid-tied
``eps_num`` when the growth exponent is below 2 (the prefactor is unbounded
near zero), and 0 otherwise (only exact zeros). Those nodes, and only those
(by flat index), are evaluated through the family's eps_num-regularized form
(``operators.regularized_coeff_arrays``) instead of the raw one.

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
step takes no Hessian and adds only the source, if any.
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
from .operators import (
    OperatorSpec,
    rank_one_coeff_arrays,
    rank_one_coeffs,
    regularized_coeff_arrays,
)

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
    """The raw state of one solve: the field ``u`` is the grid view of one
    ghost-padded buffer and ``rows`` its row view (``grid.Stencil``). Every
    full-mesh temporary lives in the row layout and is allocated once; the
    entries at ghost columns are garbage that no node reads. ``cfl_bound``
    then ``advance`` make one step."""

    def __init__(self, problem: Problem, values: np.ndarray):
        grid = problem.grid
        self.problem = problem
        stencil = self.stencil = Stencil(grid, values)
        self.u, self.rows = stencil.values, stencil.rows
        h_min = min(grid.spacing)
        self.eps_num = h_min if problem.controls.eps_num is None else problem.controls.eps_num
        floor = self.eps_num if problem.spec.growth_exponent < 2.0 else 0.0
        self.floor2 = floor * floor  # r2 <= floor2 takes the singular-gradient policy
        self.cfl_scale = _CFL_SIGMA * h_min * h_min / (2.0 * grid.dim)  # = dt_max * Lambda
        mask = interior_mask(grid)
        self.edge, self.edge_coords = None, ()  # Dirichlet boundary nodes
        if grid.boundary is Boundary.DIRICHLET:
            self.edge, self.edge_coords = _boundary_nodes(grid, mask)
        self.edge_data = None  # the boundary values the last step wrote
        n = self.rows.shape
        on_node = np.zeros(n, bool)
        stencil.nodes(on_node)[...] = True
        self.ghosts = np.flatnonzero(~on_node)  # ghost columns inside the rows (none in 1D)
        self.grads = self.hess = None  # the stencil allocates them on first use
        self.sq = [np.empty(n) for _ in range(grid.dim)]  # squared components
        self.r2 = self.sq[0] if grid.dim == 1 else np.empty(n)
        self.diff, self.work, self.zero = np.empty(n), np.empty(n), np.empty(n, bool)
        self.c_out = np.empty(n)  # c, where the family's formula computes it in place
        self.r2_nodes, self.diff_nodes, self.work_nodes = (
            stencil.nodes(a) for a in (self.r2, self.diff, self.work))
        # the nodes the CFL maximum sees: all on periodic grids, the interior on
        # Dirichlet grids (the boundary nodes carry no update)
        inner = (slice(1, -1) if self.edge is not None else slice(None),) * grid.dim
        self.work_inner, self.c_inner = (stencil.nodes(a)[inner] for a in (self.work, self.c_out))
        # a 1D member singular at xi = 0 with growth exponent 2 has the constant
        # coefficient kappa = s + c (the exact 1D reduction), so the step needs
        # neither a coefficient table nor a CFL reduction
        self.kappa = self.const_dt = None
        spec = problem.spec
        if grid.dim == 1 and spec.growth_exponent == 2.0 and not spec.everywhere_defined:
            s0, c0 = rank_one_coeffs(spec, 1.0)
            self.kappa = s0 + c0
            self.const_dt = self.cfl_scale / max(s0 + max(c0, 0.0), 1.0)

    def _coeffs(self):
        """Per-node (s, c) actually used by the scheme: the family's own
        coefficients, with the singular-gradient policy of the module docstring
        applied at the flat indices of the singular nodes only."""
        spec, r2 = self.problem.spec, self.r2
        if spec.everywhere_defined or not self.r2_nodes.min() <= self.floor2:
            return rank_one_coeff_arrays(spec, r2, out=self.c_out)
        if self.eps_num <= 0.0:
            raise ValueError("eps_num = 0 cannot regularize singular-gradient nodes")
        sing = np.flatnonzero(np.less_equal(r2, self.floor2, out=self.zero))
        work = self.work  # r2 with 1.0 at the singular nodes
        work[...] = r2
        work[sing] = 1.0
        s, c = rank_one_coeff_arrays(spec, work, out=self.c_out)
        s[sing], c[sing] = regularized_coeff_arrays(spec, self.eps_num, r2[sing])
        return s, c

    def _take_r2(self):
        """Take the gradient of ``u`` and its squared magnitude ``r2``."""
        self.grads = self.stencil.gradient(self.grads)
        for g, sq in zip(self.grads, self.sq):
            np.multiply(g, g, out=sq)
        if len(self.sq) == 2:
            np.add(self.sq[0], self.sq[1], out=self.r2)
        self.r2[self.ghosts] = 1.0  # a ghost column's r2 may be 0; keep r2 ** -x finite

    def cfl_bound(self) -> float:
        """Take the gradient and coefficients of ``u``; return its stable dt.
        A constant coefficient has a fixed dt, and only the first-order term
        needs the gradient."""
        if self.kappa is not None:
            if self.problem.spec.a != 0.0:
                self._take_r2()
            return self.const_dt
        self._take_r2()
        # drop the last step's (s, c) first: the allocator then reuses their
        # memory instead of trimming and refaulting the heap every step
        self.s = self.c = None
        self.s, self.c = self._coeffs()
        if isinstance(self.s, float):  # an everywhere-defined member: c is c_out, and
            # max_j fl(s + max(c_j, 0)) = fl(s + max(max_j c_j, 0)), as fl(s + x) never falls
            lam = self.s + max(float(self.c_inner.max()), 0.0)
        else:
            np.add(self.s, np.maximum(self.c, 0.0, out=self.work), out=self.work)
            lam = float(self.work_inner.max())
        return self.cfl_scale / max(lam, 1.0)

    def advance(self, t: float, dt: float, t_new: float) -> tuple[float, float]:
        """Step ``u`` by ``dt`` with the coefficients ``cfl_bound`` took at ``t``,
        write the boundary data at ``t_new`` and refill the ghosts; returns the
        new (min, max), which also serve as the finiteness check."""
        problem, spec = self.problem, self.problem.spec
        diff, work = self.diff, self.work
        rate = None  # the sum of the terms present, in the row layout
        if self.kappa != 0.0:  # kappa = 0 has no diffusion term, so no Hessian
            rate = diff
            hess = self.hess = self.stencil.hessian(self.hess)
            if self.kappa is not None:
                np.multiply(hess[(0, 0)], self.kappa, out=diff)
            elif problem.grid.dim == 1:
                np.multiply(np.add(self.s, self.c, out=diff), hess[(0, 0)], out=diff)
            else:
                # quad = (gx^2 uxx + 2 gx gy uxy + gy^2 uyy) / r2, with r2 = 0 read as 1
                (gx, gy), (gx2, gy2) = self.grads, self.sq
                np.multiply(gx2, hess[(0, 0)], out=diff)
                np.multiply(np.multiply(gx, 2.0, out=work), gy, out=work)
                np.add(diff, np.multiply(work, hess[(0, 1)], out=work), out=diff)
                np.add(diff, np.multiply(gy2, hess[(1, 1)], out=work), out=diff)
                np.equal(self.r2, 0.0, out=self.zero)
                np.divide(diff, np.add(self.r2, self.zero, out=work), out=diff)  # r2 >= 0
                np.multiply(diff, self.c, out=diff)
                np.add(hess[(0, 0)], hess[(1, 1)], out=work)
                np.add(np.multiply(work, self.s, out=work), diff, out=diff)
        # + (a sqrt(|Du|^2 + eps2^2) over the rows + f on the nodes)
        f = None
        if problem.source is not None:
            f = np.asarray(problem.source(*problem.grid.meshes(), t), float)
        if spec.a != 0.0:
            np.sqrt(np.add(self.r2, spec.eps2 * spec.eps2, out=work), out=work)
            np.multiply(work, spec.a, out=work)
            if f is not None:
                np.add(self.work_nodes, f, out=self.work_nodes)
            rate = work if rate is None else np.add(diff, work, out=diff)
        elif f is not None and rate is None:
            rate = diff
            self.diff_nodes[...] = f
        elif f is not None:
            np.add(self.diff_nodes, f, out=self.diff_nodes)
        rows = self.rows
        if rate is not None:  # spills into the ghost columns
            np.add(rows, np.multiply(rate, dt, out=rate), out=rows)
        if self.edge is not None:
            self.edge_data = np.asarray(problem.dirichlet(*self.edge_coords, t_new), float)
            self.u[self.edge] = self.edge_data
        self.stencil.fill_ghosts()  # every ghost now copies a node
        lo, hi = float(rows.min()), float(rows.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            bad = np.argwhere(~np.isfinite(self.u))[0]
            raise BlowUpError(tuple(int(i) for i in bad), t_new)
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
        while t < t_target - t_eps:
            dt = kernel.cfl_bound()
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
            lo, hi = kernel.advance(t, dt, t_new)
            t = t_new
            steps += 1
            min_dt = min(min_dt, dt)
            if steps > problem.controls.max_steps:
                raise BudgetExceededError(
                    f"horizon T = {problem.T} unreachable within {problem.controls.max_steps} steps"
                )
            if kernel.edge_data is not None:
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
