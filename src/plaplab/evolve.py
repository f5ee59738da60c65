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
allocates no array the size of the field; snapshots are copies. The stencil
places the buffer and every one of those temporaries (``Stencil.empty``), each
at its own offset within a page, so that no two of them alias in the L1 cache.
The kernel makes every choice that depends only on the member, the grid and the problem
once per solve, as constants, and steps with two stages of ufunc calls over
those buffers, each guarded by its constants, so no step decides anew which
terms it has. ``rate`` computes the discrete operator F_h[u], the whole
right-hand side, times h_min^2, and returns the stable dt: the gradient and
r2 = |Du|^2, the first-order term, the coefficient table with the
singular-gradient policy, Lambda, then the Hessian, the diffusion and the
source. The stencil's Hessian is h_min^2 D2u (``Stencil.hessian``), so the
diffusion is h_min^2 times its own, the first-order term takes a h_min^2 as
its per-solve value and a source one multiply by h_min^2; no pass applies
1 / h_min^2. ``update`` applies it: u += (dt / h_min^2) (h_min^2 F_h), in the
one multiply it makes anyway, the boundary data or the ghosts, and the range
check. h_min^2 F_h is the one array that crosses from one stage to the other;
a member with no term (kappa = 0 and no source) has F_h = 0.
``solve_lockstep`` (and ``solve``, its call with one problem) and ``step``
run both stages, ``cfl_dt`` the first, the last two on a fresh copy of their
field. The kernel also keeps the data range, the t = 0 range widened by each
boundary value it writes, and ``update`` keeps the largest overshoot beyond
that range. A batch whose members start from one data range (a batch of one
among them) first takes one min and one max over the whole buffer: finite
and inside every member's range (at least the largest lower end, at most the
smallest upper one), no member overshoots and none blew up, and the check
ends there; otherwise, and in a batch whose members start from different
ranges, each member's own min and max decide, so every overshoot and every
``BlowUpError`` is the member's own.

Lockstep
--------
``solve_lockstep`` marches problems that share a grid, T, source and
controls in one time loop. Problems whose kernels make the same per-solve
choices (``_choices``) form one batch: their fields lie along a leading axis
of one buffer, laid out like the rows of a 2D grid, so each stage of the step
is one ufunc call for the whole batch, and the ghost entries between two
fields are ghost columns like those between two rows. A parameter that
differs between its members (eps, kappa = s0 + c0, p, a or eps2) is a
row-layout array of each member's value, one float where they all agree.
Each step takes the smallest bound over every batch, or a ``dt_override``,
which must be within every step's bound (the check of ``step``, else
``CflViolationError``), clipped at the captures. A batch whose step adds
nothing (kappa = 0 with no source on a periodic grid, such as the base of an
eps -> 0 sweep of the curvature mode) has no update: the loop takes its fixed
dt once and calls neither of its stages, yet still takes every step.
Everything else stays per member: a member's singular nodes are its own flat
indices, and it has its own data range, overshoot and finiteness check. So a
member's result is bitwise that of its own solve with the dts the loop took.
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
maximum is taken over the rows with 0 written there, and the
singular-gradient policy reads their squared gradient as 1, so no ghost
column is a singular node (no node reads a ghost's coefficients). The
min/max that checks finiteness is taken after the write over the whole
buffer (``Stencil.flat``): every node, those on both boundaries included, and
on a periodic grid the ghosts, which then copy nodes. The everywhere-defined members with growth
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

One rule reads r2's zeros. The floor is >= 0, so every zero of r2 at a node
is a singular node. ``rate`` takes the first-order term at the true r2. The
policy alone writes r2 = 1 at the ghost columns, whose r2 may be 0, then
gathers the singular nodes' r2 for the eps_num form and writes r2 = 1 there
in place, so the table's leaf is finite at every entry, and that write is
also the 2D quadratic form's |Du|^2 = 0 read as 1. Where the floor is > 0
(growth exponent < 2) the 2D rate reads their true r2, so it is written back
with a zero read as 1. Only a 2D member without the policy reads its zeros,
its ghost columns' among them, as 1 by one pass over r2. A member without
the policy needs no other write: its table (everywhere defined) is finite at
r2 = 0, and in 1D nothing reads r2 after the table.

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
leaves the field and its ghosts as they were and returns an overshoot of 0,
and its kernel has no update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

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

    ``captures`` owns the rule of which times a solve captures; the solver,
    the sweep plan and the CLI's snapshot file names all read it.
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

    @property
    def captures(self) -> tuple[float, ...]:
        """The times a solve captures: the requested ones, sorted and without
        repeats, or T alone when none is requested."""
        return tuple(sorted(set(self.controls.snapshot_times))) or (self.T,)

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


def _choices(problem: Problem) -> tuple:
    """The choices the kernel makes once per solve for ``problem`` (see the
    module docstring), as a key: problems with equal keys step as one batch,
    with one set of branches and one coefficient formula. The family, its
    growth exponent and whether it is regularized take the branches of
    ``rank_one_coeff_arrays``; the rest are ``_kernel``'s constants."""
    spec, dim = problem.spec, problem.grid.dim
    s0, c0 = rank_one_coeffs(spec, 1.0)  # c has the sign of c0 at every gradient
    # (s, c) = (s0, c0); in 2D not for the biased families (s0 = 0)
    const = (spec.growth_exponent == 2.0 and not spec.everywhere_defined
             and (dim == 1 or s0 > 0.0))
    fixed = spec.growth_exponent == 2.0 and (const or c0 <= 0.0)  # Lambda fixed per solve
    still = const and dim == 1 and s0 + c0 == 0.0  # kappa = 0: no diffusion term
    return (spec.family, spec.growth_exponent, spec.everywhere_defined, const, fixed,
            still, not fixed and c0 > 0.0, spec.a != 0.0)


def _kernel(problems, values, members=None):
    """The step of a batch of problems with equal ``_choices`` on one grid,
    bound once: ``(u, rate, update, fh, fh_scale, overshoot)``. The fields
    ``u``, of shape (B, *grid.shape), are the views of one buffer holding
    ``values`` (one field per problem), which the step works on in its row
    view over the updated nodes of every field (``grid.Stencil``): the ghost
    entries between two fields are ghost columns like those between two
    rows. Every full-mesh temporary lives in the row layout and is allocated
    once; the entries at ghost columns are garbage that no node reads.

    Every choice is made once, into a local constant, and the step is bound as
    two stages over those buffers, each guarded by its constants; a parameter
    that differs between the members (the swept one) is a row-layout array of
    each member's value (``Stencil.spread``), one float where they all agree.
    ``rate(t)`` computes the discrete operator of every member at time t,
    h_min^2 F_h[u] (the module docstring), into the row-layout buffer
    ``diff`` and returns the dt that is stable for every member: the gradient
    and r2, the first-order term, the coefficient table with the
    singular-gradient policy, then Lambda (it leaves r2 with no zero in 2D,
    the module docstring's rule), then the Hessian, the diffusion and the
    source. ``diff`` is zero-filled once, so a member with no term (kappa = 0,
    no source) has F_h = 0: its ``rate`` takes none of those branches and
    returns its fixed dt.
    ``fh`` is ``diff``'s view as the updated nodes (``Stencil.nodes``), and
    ``fh * fh_scale`` (``fh_scale`` = 1 / h_min^2) is F_h, from the last
    ``rate`` until the next ``update``, which scales ``fh`` by dt / h_min^2 in
    place. ``update(dt, t_new)``, called after ``rate`` on the same fields,
    adds dt F_h to ``u``, writes the boundary data at t_new (Dirichlet) or
    refills the ghosts (periodic) and checks the range: the whole buffer's
    (min, max) first where the members start from one range, and each
    member's over its part of the buffer where that leaves some member's
    range, which also serve as the finiteness check (a non-finite value
    raises ``BlowUpError`` naming the node and, from ``members[b]``, the
    member). ``update`` is None where a step adds nothing (kappa = 0, no
    source, a periodic grid): it would leave the fields and their ghosts as
    they were. ``overshoot`` is a list of each member's largest overshoot so
    far (0 before the first step), which ``update`` updates in place: how far
    that (min, max) leaves the member's data range, the range of its
    ``values`` widened by every boundary value written so far."""
    problem = problems[0]
    grid, spec, source = problem.grid, problem.spec, problem.source
    stencil = Stencil(grid, values)
    u, rows, flat, ghosts = stencil.values, stencil.rows, stencil.flat, stencil.ghost_columns
    spread, size = stencil.spread, len(problems)
    h_min = min(grid.spacing)
    h2 = h_min * h_min  # the stencil's Hessian, and so diff, holds h_min^2 F_h
    eps_num = h_min if problem.controls.eps_num is None else problem.controls.eps_num
    # r2 <= floor2 takes the singular-gradient policy
    floor2 = eps_num * eps_num if spec.growth_exponent < 2.0 else 0.0
    cfl_scale = _CFL_SIGMA * h_min * h_min / (2.0 * grid.dim)  # = dt_max * Lambda
    # -- the choices made once per solve (see the module docstring)
    *_, const, fixed, still, lam_c, first_order = _choices(problem)
    s0c0 = [rank_one_coeffs(p.spec, 1.0) for p in problems]
    # the 1D coefficient of uxx, and the dt where Lambda is fixed per solve
    kappa = spread(s0 + c0 for s0, c0 in s0c0) if const and grid.dim == 1 else None
    dt_fixed = (min(cfl_scale / max(s0 + max(c0, 0.0), 1.0) for s0, c0 in s0c0)
                if fixed else None)
    # takes the singular-gradient policy, whose nodes hold every zero of r2
    singular = not (const or spec.everywhere_defined)
    diffuses = not still  # kappa = 0 has no diffusion term, so no Hessian
    # a sqrt(|Du|^2 + eps2^2), times h_min^2: only the biased families have a != 0
    a = spread(p.spec.a * h2 for p in problems)
    eps2_sq = spread(p.spec.eps2 * p.spec.eps2 for p in problems)
    # the coefficient formula's values, one per member (rank_one_coeff_arrays)
    eps_v = spread(p.spec.regularization for p in problems)
    p2 = spread(p.spec.p - 2.0 for p in problems)
    params = (eps_v, eps_v * eps_v, p2)
    # r2 feeds a table, the first-order term and the 2D quadratic form
    takes_r2 = not const or first_order or grid.dim == 2
    adds = diffuses or first_order or source is not None
    meshes, fill_ghosts = grid.meshes(), stencil.fill_ghosts
    edge = None  # the Dirichlet boundary nodes of every member, row-major
    if grid.boundary is Boundary.DIRICHLET:
        edge = np.flatnonzero(~interior_mask(grid))
        edge_coords = tuple(np.take(m, edge) for m in meshes)
        edge = edge + np.arange(size)[:, None] * (flat.size // size)  # (B, boundary nodes)
        edge_data = np.empty(edge.shape)
        dirichlets = [p.dirichlet for p in problems]
    meshes = tuple(m[stencil.updated] for m in meshes)  # the source's arguments

    def forcing(t):  # h_min^2 f at the updated nodes
        return np.multiply(np.asarray(source(*meshes, t), float), h2)

    n, empty = rows.shape, stencil.empty  # every row-size temporary is placed by the stencil
    r2, diff, work = (empty(n) for _ in range(3))  # work: the first-order term
    diff[...] = 0.0  # F_h where no term writes it: kappa = 0 with no source
    zero = empty(n, bool)
    diff_nodes, work_nodes = stencil.nodes(diff), stencil.nodes(work)
    if not const:  # c, and s with the leaf's temporary (diff is free until the diffusion)
        c_out, table = empty(n), (empty(n), diff)
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
    # (s, c) of a constant-coefficient member; a table member's are the table's
    coeffs = spread(s0 for s0, _ in s0c0), spread(c0 for _, c0 in s0c0)
    # each member's part of the buffer; its nodes' range, widened by the
    # boundary data, and its largest overshoot so far (Python floats: a
    # member's check is a few scalar operations)
    blocks = flat.reshape(size, -1)
    axes = tuple(range(1, u.ndim))
    data_lo, data_hi = u.min(axis=axes).tolist(), u.max(axis=axes).tolist()
    overshoot = [0.0] * size
    # members that start from one data range check the whole buffer against
    # every member's range first, by one min and one max
    shared = len(set(data_lo)) == 1 and len(set(data_hi)) == 1

    def rate(t):
        s, c = coeffs
        if takes_r2:
            gradient()
            if grid.dim == 1:
                np.square(ux, out=r2)
            else:
                np.add(np.square(ux, out=r2), np.square(uy, out=diff), out=r2)
            if first_order:  # a sqrt(|Du|^2 + eps2^2), at the singular nodes' true r2
                np.multiply(np.sqrt(np.add(r2, eps2_sq, out=work), out=work), a, out=work)
        if not const:
            if singular:  # the policy of the module docstring, at its nodes only
                if ghosts.size:  # a ghost column's r2 may be 0: it is no singular node
                    r2[ghosts] = 1.0
                sing = np.flatnonzero(np.less_equal(r2, floor2, out=zero))
                if sing.size:
                    if eps_num <= 0.0:
                        raise ValueError("eps_num = 0 cannot regularize singular-gradient nodes")
                    r2_sing = r2[sing]  # the eps_num form's argument
                    r2[sing] = 1.0  # every leaf is finite there
            s, c = rank_one_coeff_arrays(spec, r2, out=c_out, work=table, params=params)
            if singular and sing.size:
                sing_params = (eps_num, eps_num * eps_num,
                               p2 if isinstance(p2, float) else p2[sing])
                s[sing], c[sing] = rank_one_coeff_arrays(spec, r2_sing, eps=eps_num,
                                                         params=sing_params)
                if floor2 > 0.0 and grid.dim == 2:  # the 2D rate reads their r2, 0 as 1
                    r2[sing] = np.where(r2_sing == 0.0, 1.0, r2_sing)
        if grid.dim == 2 and not singular:  # the quadratic form reads r2 = 0 as 1
            r2[np.flatnonzero(np.equal(r2, 0.0, out=zero))] = 1.0
        dt = dt_fixed
        if dt is None:
            # c has the sign of c0 at every node, so s + max(c, 0) is s + c where
            # c0 > 0, and else s, a table here (growth exponent != 2) whose
            # ghost-column entries no node reads; the largest over every member
            lam = np.add(c, s, out=diff) if lam_c else s
            lam[ghosts] = 0.0
            dt = cfl_scale / max(float(lam.max()), 1.0)
        # h_min^2 F_h, the sum of the terms present, in the row layout: diffusion
        # + (a sqrt(|Du|^2 + eps2^2) over the rows + f on the nodes), in diff
        if diffuses:
            hessian()
            if kappa is not None:
                np.multiply(uxx, kappa, out=diff)
            elif grid.dim == 1:
                np.multiply(np.add(s, c, out=diff), uxx, out=diff)
            else:
                # s tr D2u + c (ux^2 uxx + uy^2 uyy + ux uy 2uxy) / r2, with no
                # zero left in r2 (above)
                np.multiply(np.add(uxx, uyy, out=diff), s, out=diff)
                np.multiply(np.multiply(uxx, ux, out=uxx), ux, out=uxx)
                np.multiply(np.multiply(uyy, uy, out=uyy), uy, out=uyy)
                np.add(uxx, uyy, out=uxx)
                np.multiply(np.multiply(uxy2, ux, out=uxy2), uy, out=uxy2)
                np.add(uxx, uxy2, out=uxx)
                np.divide(uxx, r2, out=uxx)
                np.add(diff, np.multiply(uxx, c, out=uxx), out=diff)
        if first_order:  # the biased families, whose diffusion never vanishes
            if source is not None:
                np.add(work_nodes, forcing(t), out=work_nodes)
            np.add(diff, work, out=diff)
        elif source is not None and diffuses:
            np.add(diff_nodes, forcing(t), out=diff_nodes)
        elif source is not None:
            diff_nodes[...] = forcing(t)
        return dt

    def update(dt, t_new):
        if adds:  # the update spills into the ghost columns
            np.add(rows, np.multiply(diff, dt / h2, out=diff), out=rows)
        if edge is None:
            fill_ghosts()  # every ghost now copies a node
        else:  # the boundary data, which also overwrites the ghost columns
            for member_data, dirichlet in zip(edge_data, dirichlets):
                member_data[...] = np.asarray(dirichlet(*edge_coords, t_new), float)
            flat[edge] = edge_data
            # a NaN datum leaves the data range as it is and fails the check below
            data_lo[:] = map(min, data_lo, edge_data.min(axis=1).tolist())
            data_hi[:] = map(max, data_hi, edge_data.max(axis=1).tolist())
        # every node, and ghosts that copy nodes
        if shared:  # a batch of one, too, whose member's two values these are
            lo, hi = [float(flat.min())], [float(flat.max())]
            # finite and inside every member's range: none overshoots, none blew up
            if max(data_lo) <= lo[0] and hi[0] <= min(data_hi) and math.isfinite(hi[0] - lo[0]):
                return
        if size > 1:
            lo, hi = blocks.min(axis=1).tolist(), blocks.max(axis=1).tolist()
        for b, (l, h) in enumerate(zip(lo, hi)):
            if not (math.isfinite(l) and math.isfinite(h)):
                node = np.argwhere(~np.isfinite(u[b]))[0]
                raise BlowUpError(tuple(int(i) for i in node), t_new,
                                  None if members is None else members[b])
            overshoot[b] = max(overshoot[b], h - data_hi[b], data_lo[b] - l)

    if not adds and edge is None:
        # a step that adds nothing leaves the fields and their ghosts as they were
        update = None
    return u, rate, update, diff_nodes, 1.0 / h2, overshoot


def _check_stable(dt: float, dt_max: float, t: float) -> None:
    """The one stability check of a caller's dt: above the CFL bound dt_max of
    the step at t (within 1e-9 relative) it raises ``CflViolationError``."""
    if dt > dt_max * (1.0 + 1e-9):
        raise CflViolationError(f"dt = {dt:.3e} exceeds CFL bound {dt_max:.3e} at t = {t:.6g}")


def cfl_dt(problem: Problem, fld: ScalarField) -> float:
    """Stable time step for the current field (same coefficients as ``step``)."""
    if fld.grid != problem.grid:
        raise ValueError("field is not on the problem's grid")
    return _kernel([problem], fld.values[None])[1](fld.time)


def step(fld: ScalarField, problem: Problem, dt: float) -> ScalarField:
    """One forward-Euler step; rejects dt above the stability bound."""
    if fld.grid != problem.grid:
        raise ValueError("field is not on the problem's grid")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if fld.time + dt > problem.T + 1e-9 * max(dt, problem.T, 1.0):
        raise ValueError(f"step past the horizon: t = {fld.time:.6g}, T = {problem.T:.6g}")
    u, rate, update, *_ = _kernel([problem], fld.values[None])
    _check_stable(dt, rate(fld.time), fld.time)
    if update is not None:
        update(dt, fld.time + dt)
    return ScalarField(problem.grid, u[0], fld.time + dt)


def solve(problem: Problem, dt_override: Optional[float] = None) -> SolveResult:
    """March from t = 0 to T, capturing snapshots exactly at requested times:
    ``solve_lockstep`` of this one problem."""
    return solve_lockstep([problem], dt_override)[0]


def solve_lockstep(problems: Sequence[Problem],
                   dt_override: Optional[float] = None) -> list[SolveResult]:
    """March every problem from t = 0 to T in one time loop, capturing
    snapshots exactly at the requested times; one ``SolveResult`` per problem,
    in order.

    The problems must share grid, T, controls (the captures among them) and
    source; their operators and data may differ. Problems with the same
    per-solve choices (``_choices``) step as one batch, one buffer and one
    ufunc call per stage for all of them; the others form further batches of
    the same loop, and a batch whose step adds nothing is not called. Each
    step takes the smallest CFL bound of that step over every member, clipped
    at capture times. A ``dt_override`` (finite and > 0) fixes every step
    instead; one above some step's bound raises ``CflViolationError`` naming
    dt, the bound and t, as ``step`` does. So every member steps with every dt
    the loop takes, and its result is that of ``solve(member,
    dt_override=dt)`` wherever that steps with the same dts. The steps and min
    dt are shared; each member has its own overshoot and finiteness check.
    Snapshots are copies of the loop's own buffers.
    """
    problems = list(problems)
    if not problems:
        raise ValueError("solve_lockstep needs at least one problem")
    first = problems[0]
    shared = (first.grid, first.T, first.source, first.controls)
    if any((p.grid, p.T, p.source, p.controls) != shared for p in problems[1:]):
        raise ValueError("lockstep problems must share grid, T, source and controls")
    if dt_override is not None and not (math.isfinite(dt_override) and dt_override > 0):
        raise ValueError(f"dt_override must be finite and > 0, got {dt_override}")
    requested = first.captures
    targets = tuple(sorted(set(requested + (first.T,))))
    batches = {}  # choices -> the indices of the problems that share them
    for i, p in enumerate(problems):
        batches.setdefault(_choices(p), []).append(i)
    batches = list(batches.values())
    kernels = [_kernel([problems[i] for i in idx],
                       [problems[i].initial_field().values for i in idx],
                       idx if len(problems) > 1 else None)  # a blow-up names its member
               for idx in batches]
    # a batch whose step adds nothing has no update: the fixed dt of its first
    # rate bounds every step, and the loop calls neither of its stages
    dt_idle = min([rate(0.0) for _, rate, update, *_ in kernels if update is None] + [math.inf])
    stepped = [(rate, update) for _, rate, update, *_ in kernels if update is not None]
    max_steps = first.controls.max_steps
    snapshots = [[] for _ in problems]
    steps, min_dt, t = 0, math.inf, 0.0
    t_eps = 1e-12 * max(1.0, first.T)
    for t_target in targets:
        t_stop = t_target - t_eps
        while t < t_stop:
            dt = dt_idle  # the smallest bound over every batch (a loop keeps t a local)
            for rate, _ in stepped:
                dt = min(dt, rate(t))
            if dt_override is not None:
                _check_stable(dt_override, dt, t)
                dt = dt_override
            t_new = t + dt
            if dt >= t_target - t - t_eps:
                dt, t_new = t_target - t, t_target
            for _, update in stepped:
                update(dt, t_new)
            t = t_new
            steps += 1
            min_dt = min(min_dt, dt)
            if steps > max_steps:
                raise BudgetExceededError(
                    f"horizon T = {first.T} unreachable within {max_steps} steps"
                )
        if t_target in requested:
            for idx, (u, *_) in zip(batches, kernels):
                for i, values in zip(idx, u):
                    snapshots[i].append(ScalarField(first.grid, values, t))
    results = [None] * len(problems)
    for idx, (*_, overshoot) in zip(batches, kernels):
        for i, member_over in zip(idx, overshoot):
            stats = SolveStats(steps=steps, min_dt=min_dt if steps else 0.0,
                               overshoot=float(member_over), final_time=t)
            results[i] = SolveResult(snapshots=snapshots[i], stats=stats)
    return results
