"""Explicit forward-Euler evolution of

    u_t = tr(A(grad u) D2 u) + a sqrt(|grad u|^2 + eps2^2) + f(x, t),

where a and eps2 are the operator's own (``OperatorSpec.a``/``eps2``, nonzero
for the biased families only) and the source f is ``Problem.source``.

Monotone under the CFL bound dt <= h_min^2 / (4 n Lambda), where Lambda is the
largest diffusion eigenvalue at the step's actual gradient (floored at 1);
the coefficients are never clamped. Snapshots are captured exactly at
requested times; runs are deterministic.

A solve holds its field in one buffer (``grid.Stencil``), steps it in place
and allocates its temporaries once, the coefficient table's among them
(``out`` and ``work`` of ``operators.rank_one_coeff_arrays``), so a step
allocates no array the size of the field; snapshots are copies. The kernel
makes every choice that depends only on the member, the grid and the problem
once per solve, as constants, and steps with two functions of ufunc calls
over those buffers: ``cfl_bound`` and ``advance`` run the stages of the step
in order, each stage guarded by its constant, so no step decides anew which
terms it has. ``cfl_bound`` takes every term that depends on the gradient
(r2 = |Du|^2, the first-order term, the coefficient table and Lambda),
``advance`` the Hessian, the rate and the update. ``solve``, ``step`` and
``cfl_dt`` all run them, the last two on a fresh copy of their field. The
kernel also keeps the data range, the t = 0 range widened by each boundary
value it writes, and ``advance`` returns its step's overshoot beyond that
range, so ``solve`` only takes the largest.
A Dirichlet grid is its own frame: the step updates its interior, and its
boundary nodes hold the prescribed data and act as the interior's ghosts, so
no stage of the step (gradient, coefficients, singular-gradient decision,
rate, source) is taken for a boundary node. A periodic grid updates every
node inside a layer of wrapped ghosts. Every temporary is laid out in the
stencil's whole rows over the updated nodes, so the stencils and the update
read contiguous memory. The step adds to the whole rows, then writes the
boundary data straight into the field (Dirichlet) or refills the ghosts
(periodic), which overwrites what spilled into the ghost columns. Ghost
columns never count, by one skip list (``Stencil.ghost_columns``): the CFL
maximum is taken over the rows with 0 written there, and their squared
gradient is read as 1, so no coefficient is evaluated at a spurious zero
there (and no node reads a ghost's coefficients). The min/max that checks
finiteness is taken after the write over the whole buffer (``Stencil.flat``):
every node, those on both boundaries included, and on a periodic grid the
ghosts, which then copy nodes. The everywhere-defined members with growth
exponent 2 have one s at every node (1, or eps1 for the biased family): their
table is c alone. Most passes write into one of their own operands, which
costs less than a pass into a third array.

In 2D the diffusion term is s tr D2u + c (ux^2 uxx + uy^2 uyy + 2 ux uy uxy)
/ |Du|^2, with |Du|^2 = 0 read as 1, where the stencil's cross difference
carries the 2. Every stencil sum is taken in an order that reflection of the
grid maps onto itself and the rest is elementwise, so a step keeps data that
is symmetric about a node exactly symmetric, and a symmetric critical point
keeps an exactly zero gradient (and its singular-gradient form) at every
step.

Lambda is fixed per solve by one rule. At growth exponent 2 a member has one
s and a c of one sign at every gradient, its singular-gradient proxy included,
so the kernel takes (s0, c0) at |xi| = 1 once. A member with constant
coefficients (below) steps at Lambda = s0 + max(c0, 0); a table member with
c0 <= 0 (regularized_pq(p <= 2, 2, eps > 0)) at Lambda = s0 exactly. Either
way the dt is fixed once per solve and no step takes a maximum. Every other
table member takes Lambda = max(s + max(c, 0)) over the nodes at each step.
c has the sign of c0 at every gradient in every family, so that maximum is
max(s + c) where c0 > 0 and max(s) where c0 <= 0, the same bits without a
max(c, 0) pass.

Singular-gradient policy
------------------------
A table member that is not defined at a zero gradient takes the policy at
nodes whose discrete gradient magnitude is at or below a floor: the
grid-tied ``eps_num`` when the growth exponent is below 2 (the prefactor is
unbounded near zero), and 0 otherwise (only exact zeros). Those nodes, found
by flat index in one pass, take their family's form at eps = eps_num
(``operators.rank_one_coeff_arrays``), whose eps = 0 form is the member itself.

One rule reads r2's zeros. ``cfl_bound`` takes the first-order term at the
true r2, then gathers the singular nodes' r2 for the eps_num form and writes
r2 = 1 there in place, so the table's leaf is finite at every node. Where the
floor is 0 those nodes are exactly r2's zeros, and the write is also the 2D
quadratic form's |Du|^2 = 0 read as 1. Where the floor is > 0 (growth
exponent < 2) the 2D rate reads their true r2, so it is written back; that
member, and every 2D member without the policy, reads its zeros as 1 by one
pass for r2 = 0. In 1D nothing reads r2 after the table.

Constant coefficients
---------------------
A member with growth exponent 2 that is not defined at a zero gradient
(normalized, general_pq(p, 2), regularized_pq(p, 2, 0) and variational(2),
with (s, c) = (1, p - 2), and the biased infinity families with eps1 = 0,
with (0, 1)) has (s, c) = (s0, c0) at every nonzero gradient. Except for the
biased families in 2D, the kernel steps it with those two numbers at every
node, singular ones included, and with the dt it fixes once per solve. It
builds no coefficient table, so eps_num plays no part (0 is accepted).
In 2D this is what the policy itself gives: the eps_num form keeps s = 1, and
at |Du|^2 = 0 c multiplies a quadratic form that is exactly 0. The biased
families keep their 2D table, because their singular nodes take s = eps_num.
In 1D the step is kappa uxx with kappa = s0 + c0, the exact one-dimensional
reduction of the operator, the biased families included; the regularized
form would put an O(h) defect at isolated critical points and destroy the
scheme's second-order convergence there. At kappa = 0 (normalized(1),
regularized_pq(1, 2, 0)) the step takes no Hessian and adds only the source,
if any. With no source and no Dirichlet edge such a step adds nothing: it
leaves the field and its ghosts as they were and returns an overshoot of 0.
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
    (f(x, t) in 1D, f(x, y, t) in 2D), evaluated at the updated nodes only:
    its coordinate arguments are arrays of every node of a periodic grid and
    of the interior of a Dirichlet grid, and it returns an array of that
    shape or a scalar. None means f = 0. The rest of the first-order term
    comes from ``spec``.
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
        meshes = self.grid.meshes()
        u0 = np.broadcast_to(np.asarray(self.initial(*meshes), float), self.grid.shape)
        edge = np.flatnonzero(~interior_mask(self.grid))  # the boundary nodes, row-major
        g0 = np.asarray(self.dirichlet(*(np.take(m, edge) for m in meshes), 0.0), float)
        scale = 1.0 + np.max(np.abs(u0))
        if np.max(np.abs(np.take(u0, edge) - g0)) > 1e-9 * scale:
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


def _kernel(problem: Problem, values: np.ndarray):
    """One solve's step, bound once: ``(u, cfl_bound, advance)``. The field
    ``u`` is the grid view of one buffer holding ``values``, which the step
    works on in its row view over the updated nodes (``grid.Stencil``). Every
    full-mesh temporary lives in the row layout and is allocated once; the
    entries at ghost columns are garbage that no node reads.

    Every choice that depends only on the member, the grid and the problem is
    made once, into a local constant, and the step is bound as two functions
    over those buffers that run its stages in order, each stage guarded by its
    constant. ``cfl_bound()`` takes every term that depends on the gradient:
    the gradient and r2, the first-order term (into a buffer that ``advance``
    reads), the coefficient table with the singular-gradient policy, then
    Lambda; it leaves r2 with no zero in 2D (the module docstring's rule) and
    returns the stable dt. ``advance(t, dt, t_new)``, called after
    ``cfl_bound`` on the same field, adds dt times the diffusion, the
    first-order term and the source to ``u``, writes the boundary data at
    t_new (Dirichlet) or refills the ghosts (periodic) and takes the new
    (min, max) over the whole buffer, which also serve as the finiteness
    check. It returns the step's overshoot:
    how far that (min, max) leaves the data range, the range of ``values``
    widened by every boundary value written so far."""
    grid, spec, source = problem.grid, problem.spec, problem.source
    stencil = Stencil(grid, values)
    u, rows, flat, ghosts = stencil.values, stencil.rows, stencil.flat, stencil.ghost_columns
    h_min = min(grid.spacing)
    eps_num = h_min if problem.controls.eps_num is None else problem.controls.eps_num
    # r2 <= floor2 takes the singular-gradient policy
    floor2 = eps_num * eps_num if spec.growth_exponent < 2.0 else 0.0
    cfl_scale = _CFL_SIGMA * h_min * h_min / (2.0 * grid.dim)  # = dt_max * Lambda
    # -- the choices made once per solve (see the module docstring)
    s0, c0 = rank_one_coeffs(spec, 1.0)  # c has the sign of c0 at every gradient
    # (s, c) = (s0, c0); in 2D not for the biased families (s0 = 0)
    const = (spec.growth_exponent == 2.0 and not spec.everywhere_defined
             and (grid.dim == 1 or s0 > 0.0))
    kappa = s0 + c0 if const and grid.dim == 1 else None  # the 1D coefficient of uxx
    dt_fixed = None  # where Lambda is fixed per solve
    if spec.growth_exponent == 2.0 and (const or c0 <= 0.0):
        dt_fixed = cfl_scale / max(s0 + max(c0, 0.0), 1.0)
    singular = not (const or spec.everywhere_defined)  # takes the singular-gradient policy
    # where the singular decision takes exactly the zeros (floor 0), its r2 = 1
    # write leaves the 2D quadratic form no zero to read as 1
    guarded = singular and floor2 == 0.0
    diffuses = kappa != 0.0  # kappa = 0 has no diffusion term, so no Hessian
    a, eps2_sq = spec.a, spec.eps2 * spec.eps2  # only the biased families have a != 0
    # r2 feeds a table, the first-order term and the 2D quadratic form
    takes_r2 = not const or a != 0.0 or grid.dim == 2
    adds = diffuses or a != 0.0 or source is not None
    meshes, fill_ghosts = grid.meshes(), stencil.fill_ghosts
    edge = None  # the Dirichlet boundary nodes, row-major
    if grid.boundary is Boundary.DIRICHLET:
        edge = np.flatnonzero(~interior_mask(grid))
        edge_coords = tuple(np.take(m, edge) for m in meshes)
        dirichlet, edge_data = problem.dirichlet, np.empty(edge.size)
    meshes = tuple(m[stencil.updated] for m in meshes)  # the source's arguments

    n = rows.shape
    r2, diff, work = (np.empty(n) for _ in range(3))  # work: the first-order term
    zero = np.empty(n, bool)
    diff_nodes, work_nodes = stencil.nodes(diff), stencil.nodes(work)
    if not const:  # c, and s with the leaf's temporary (diff is free until the rate)
        c_out, table = np.empty(n), (np.empty(n), diff)
    if takes_r2:
        gradient = stencil.gradient
        grads = gradient()
        ux, uy = grads[0], grads[-1]  # in 1D uy is ux, and unread
    if diffuses:
        # in 2D the cross entry is 2 uxy, the factor the quadratic form takes;
        # the rate works in the Hessian's own arrays, which the next step rewrites
        hessian = stencil.hessian
        hess = hessian()
        uxx, uxy2, uyy = hess[(0, 0)], hess.get((0, 1)), hess.get((1, 1))
    # the coefficients, as the last cfl_bound took them
    s, c = s0, c0
    data_lo, data_hi = float(u.min()), float(u.max())  # widened by the boundary data

    def cfl_bound():
        nonlocal s, c
        if takes_r2:
            gradient()
            if grid.dim == 1:  # no ghost columns
                np.square(ux, out=r2)
            else:
                np.add(np.square(ux, out=r2), np.square(uy, out=diff), out=r2)
                r2[ghosts] = 1.0  # a ghost column's r2 may be 0; keep r2 ** -x finite
            if a != 0.0:  # a sqrt(|Du|^2 + eps2^2), at the singular nodes' true r2
                np.multiply(np.sqrt(np.add(r2, eps2_sq, out=work), out=work), a, out=work)
        if not const:
            if singular:  # the policy of the module docstring, at its nodes only
                sing = np.flatnonzero(np.less_equal(r2, floor2, out=zero))
                if sing.size:
                    if eps_num <= 0.0:
                        raise ValueError("eps_num = 0 cannot regularize singular-gradient nodes")
                    r2_sing = r2[sing]  # the eps_num form's argument
                    r2[sing] = 1.0  # every leaf is finite there
            s, c = rank_one_coeff_arrays(spec, r2, out=c_out, work=table)
            if singular and sing.size:
                s[sing], c[sing] = rank_one_coeff_arrays(spec, r2_sing, eps=eps_num)
                if floor2 > 0.0 and grid.dim == 2:  # the 2D rate reads their r2
                    r2[sing] = r2_sing
        if grid.dim == 2 and not guarded:  # the quadratic form reads r2 = 0 as 1
            r2[np.flatnonzero(np.equal(r2, 0.0, out=zero))] = 1.0
        if dt_fixed is not None:
            return dt_fixed
        # c has the sign of c0 at every node, so s + max(c, 0) is s + c where
        # c0 > 0, and else s, a table here (growth exponent != 2) whose
        # ghost-column entries no node reads
        lam = np.add(c, s, out=diff) if c0 > 0.0 else s
        lam[ghosts] = 0.0
        return cfl_scale / max(float(lam.max()), 1.0)

    def advance(t, dt, t_new):
        nonlocal data_lo, data_hi
        # the rate, the sum of the terms present, in the row layout: diffusion
        # + (a sqrt(|Du|^2 + eps2^2) over the rows + f on the nodes), in diff
        if diffuses:
            hessian()
            if kappa is not None:
                np.multiply(uxx, kappa, out=diff)
            elif grid.dim == 1:
                np.multiply(np.add(s, c, out=diff), uxx, out=diff)
            else:
                # s tr D2u + c (ux^2 uxx + uy^2 uyy + ux uy 2uxy) / r2, with no
                # zero left in r2 (cfl_bound)
                np.multiply(np.add(uxx, uyy, out=diff), s, out=diff)
                np.multiply(np.multiply(uxx, ux, out=uxx), ux, out=uxx)
                np.multiply(np.multiply(uyy, uy, out=uyy), uy, out=uyy)
                np.add(uxx, uyy, out=uxx)
                np.multiply(np.multiply(uxy2, ux, out=uxy2), uy, out=uxy2)
                np.add(uxx, uxy2, out=uxx)
                np.divide(uxx, r2, out=uxx)
                np.add(diff, np.multiply(uxx, c, out=uxx), out=diff)
        if a != 0.0:  # the biased families, whose diffusion never vanishes
            if source is not None:
                np.add(work_nodes, np.asarray(source(*meshes, t), float), out=work_nodes)
            np.add(diff, work, out=diff)
        elif source is not None and diffuses:
            np.add(diff_nodes, np.asarray(source(*meshes, t), float), out=diff_nodes)
        elif source is not None:
            diff_nodes[...] = np.asarray(source(*meshes, t), float)
        if adds:  # the update spills into the ghost columns
            np.add(rows, np.multiply(diff, dt, out=diff), out=rows)
        if edge is None:
            fill_ghosts()  # every ghost now copies a node
        else:  # the boundary data, which also overwrites the ghost columns
            edge_data[...] = np.asarray(dirichlet(*edge_coords, t_new), float)
            flat[edge] = edge_data
            # a NaN datum leaves the data range as it is and fails the check below
            data_lo = min(data_lo, float(edge_data.min()))
            data_hi = max(data_hi, float(edge_data.max()))
        lo, hi = float(flat.min()), float(flat.max())  # every node, and ghosts that copy nodes
        if not (math.isfinite(lo) and math.isfinite(hi)):
            bad = np.argwhere(~np.isfinite(u))[0]
            raise BlowUpError(tuple(int(i) for i in bad), t_new)
        return max(hi - data_hi, data_lo - lo, 0.0)

    if not adds and edge is None:
        # a step that adds nothing leaves the field and its ghosts as they were

        def advance(t, dt, t_new):
            return 0.0

    return u, cfl_bound, advance


def cfl_dt(problem: Problem, fld: ScalarField) -> float:
    """Stable time step for the current field (same coefficients as ``step``)."""
    if fld.grid != problem.grid:
        raise ValueError("field is not on the problem's grid")
    return _kernel(problem, fld.values)[1]()


def step(fld: ScalarField, problem: Problem, dt: float) -> ScalarField:
    """One forward-Euler step; rejects dt above the stability bound."""
    if fld.grid != problem.grid:
        raise ValueError("field is not on the problem's grid")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if fld.time + dt > problem.T + 1e-9 * max(dt, problem.T, 1.0):
        raise ValueError(f"step past the horizon: t = {fld.time:.6g}, T = {problem.T:.6g}")
    u, cfl_bound, advance = _kernel(problem, fld.values)
    dt_max = cfl_bound()
    if dt > dt_max * (1.0 + 1e-9):
        raise CflViolationError(f"dt = {dt:.3e} exceeds CFL bound {dt_max:.3e}")
    advance(fld.time, dt, fld.time + dt)
    return ScalarField(problem.grid, u, fld.time + dt)


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
    u, cfl_bound, advance = _kernel(problem, initial.values)
    max_steps = problem.controls.max_steps
    snapshots = []
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
            overshoot = max(overshoot, advance(t, dt, t_new))
            t = t_new
            steps += 1
            min_dt = min(min_dt, dt)
            if steps > max_steps:
                raise BudgetExceededError(
                    f"horizon T = {problem.T} unreachable within {max_steps} steps"
                )
        if t_target in requested:
            snapshots.append(ScalarField(problem.grid, u, t))
    stats = SolveStats(
        steps=steps,
        min_dt=min_dt if steps else 0.0,
        overshoot=overshoot,
        final_time=t,
    )
    return SolveResult(snapshots=snapshots, stats=stats)
