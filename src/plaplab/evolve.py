"""Explicit forward-Euler evolution of

    u_t = tr(A(grad u) D2 u) + a sqrt(|grad u|^2 + eps2^2) + f(x, t),

where a and eps2 are the operator's own (``OperatorSpec.a``/``eps2``, nonzero
for the biased families only) and the source f is ``Problem.source``.

Monotone under the CFL bound dt <= h_min^2 / (4 n Lambda), where Lambda is the
largest diffusion eigenvalue at the step's actual gradient (floored at 1);
the coefficients are never clamped. Snapshots are captured exactly at
requested times; runs are deterministic.

Singular-gradient policy
------------------------
A member that is not defined at a zero gradient takes the policy at nodes
whose discrete gradient magnitude is at or below a floor: the grid-tied
``eps_num`` when the growth exponent is below 2 (the prefactor is unbounded
near zero), and 0 otherwise (only exact zeros). Those nodes are evaluated
through the family's eps_num-regularized form
(``operators.regularized_coeff_arrays``) instead of the raw one. One
exception, in one dimension only: families whose diffusion coefficient is
constant in the gradient (growth exponent p' = 2, i.e. normalized-type and the
infinity Laplacian) use that constant at singular nodes, which is the exact
one-dimensional reduction of the operator. The regularized form would put an
O(h) defect at isolated critical points and destroy the scheme's second-order
convergence there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, BudgetExceededError, CflViolationError
from .grid import (
    Boundary,
    GridSpec,
    ScalarField,
    gradient_arrays,
    hessian_arrays,
    interior_mask,
)
from .operators import (
    OperatorSpec,
    rank_one_coeff_arrays,
    rank_one_coeffs,
    regularized_coeff_arrays,
)

_CFL_SIGMA = 0.5  # dt_max = _CFL_SIGMA h_min^2 / (2 n Lambda)


@dataclass(frozen=True)
class SolverControls:
    snapshot_times: tuple[float, ...] = ()  # empty: capture at T only
    eps_num: Optional[float] = None         # None: min grid spacing
    max_steps: int = 20_000_000

    def __post_init__(self):
        if self.eps_num is not None and self.eps_num < 0:
            raise ValueError("eps_num must be >= 0")
        ts = tuple(float(t) for t in self.snapshot_times)
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("snapshot_times must be sorted")
        object.__setattr__(self, "snapshot_times", ts)


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
        if self.T < 0:
            raise ValueError("T must be >= 0")
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


@dataclass(frozen=True)
class _SolveConstants:
    """Everything the step needs that does not change over one solve."""

    mask: np.ndarray            # interior nodes (stencil updates apply)
    edge: Optional[tuple]       # index of the Dirichlet boundary nodes; None if periodic
    edge_coords: tuple          # their coordinates, where ``problem.dirichlet`` is evaluated
    cfl_scale: float            # dt_max = cfl_scale / Lambda
    floor2: float               # squared singular floor: r2 <= floor2 takes the policy
    eps_num: float


def _constants(problem: Problem) -> _SolveConstants:
    grid = problem.grid
    mask = interior_mask(grid)
    h_min = min(grid.spacing)
    eps_num = h_min if problem.controls.eps_num is None else problem.controls.eps_num
    floor = eps_num if problem.spec.growth_exponent < 2.0 else 0.0
    edge, edge_coords = None, ()
    if grid.boundary is Boundary.DIRICHLET:
        edge, edge_coords = _boundary_nodes(grid, mask)
    return _SolveConstants(
        mask=mask,
        edge=edge,
        edge_coords=edge_coords,
        cfl_scale=_CFL_SIGMA * h_min * h_min / (2.0 * grid.dim),
        floor2=floor * floor,
        eps_num=eps_num,
    )


def _effective_coeffs(problem: Problem, consts: _SolveConstants, r2: np.ndarray):
    """Per-node (s, c) actually used by the scheme: the family's own
    coefficients, with the singular-gradient policy of the module docstring."""
    spec = problem.spec
    if spec.everywhere_defined:
        return rank_one_coeff_arrays(spec, r2)

    sing = r2 <= consts.floor2
    if not np.any(sing):
        return rank_one_coeff_arrays(spec, r2)
    s, c = rank_one_coeff_arrays(spec, np.where(sing, 1.0, r2))
    if problem.grid.dim == 1 and spec.growth_exponent == 2.0:
        s0, c0 = rank_one_coeffs(spec, 1.0)  # constant 1D coefficient
        s[sing], c[sing] = s0 + c0, 0.0
    elif consts.eps_num <= 0.0:
        raise ValueError("eps_num = 0 cannot regularize singular-gradient nodes")
    else:
        s[sing], c[sing] = regularized_coeff_arrays(spec, consts.eps_num, r2[sing])
    return s, c


def _stage(problem: Problem, consts: _SolveConstants, fld: ScalarField):
    grads = gradient_arrays(fld)
    r2 = grads[0] * grads[0]
    for g in grads[1:]:
        r2 = r2 + g * g
    s, c = _effective_coeffs(problem, consts, r2)
    lam = float(np.max((s + np.maximum(c, 0.0))[consts.mask]))
    return grads, r2, s, c, consts.cfl_scale / max(lam, 1.0)


def cfl_dt(problem: Problem, fld: ScalarField) -> float:
    """Stable time step for the current field (same coefficients as ``step``)."""
    if fld.grid != problem.grid:
        raise ValueError("field is not on the problem's grid")
    return _stage(problem, _constants(problem), fld)[-1]


def _advance(problem: Problem, consts: _SolveConstants, fld: ScalarField, stage,
             dt: float, t_new: float) -> ScalarField:
    """The field at ``t_new`` after a step of ``dt`` (``t_new`` names the capture
    time exactly when the step lands on one)."""
    grads, r2, s, c, _ = stage
    hess = hessian_arrays(fld)
    if problem.grid.dim == 1:
        diff = (s + c) * hess[(0, 0)]
    else:
        r2_safe = np.where(r2 > 0.0, r2, 1.0)
        gx, gy = grads
        quad = (
            gx * gx * hess[(0, 0)]
            + 2.0 * gx * gy * hess[(0, 1)]
            + gy * gy * hess[(1, 1)]
        ) / r2_safe
        diff = s * (hess[(0, 0)] + hess[(1, 1)]) + c * quad
    spec = problem.spec
    first = None  # a sqrt(|Du|^2 + eps2^2) + f
    if spec.a != 0.0:
        first = spec.a * np.sqrt(r2 + spec.eps2 * spec.eps2)
    if problem.source is not None:
        f = np.asarray(problem.source(*problem.grid.meshes(), fld.time), float)
        first = f if first is None else first + f
    rhs = diff if first is None else diff + first

    new_vals = fld.values + dt * rhs
    if consts.edge is not None:
        new_vals[consts.edge] = problem.dirichlet(*consts.edge_coords, t_new)
    if not np.all(np.isfinite(new_vals)):
        bad = np.argwhere(~np.isfinite(new_vals))[0]
        raise BlowUpError(tuple(int(i) for i in bad), t_new)
    return ScalarField(problem.grid, new_vals, t_new)


def step(fld: ScalarField, problem: Problem, dt: float) -> ScalarField:
    """One forward-Euler step; rejects dt above the stability bound."""
    if fld.grid != problem.grid:
        raise ValueError("field is not on the problem's grid")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if fld.time + dt > problem.T + 1e-9 * max(dt, problem.T, 1.0):
        raise ValueError(f"step past the horizon: t = {fld.time:.6g}, T = {problem.T:.6g}")
    consts = _constants(problem)
    stage = _stage(problem, consts, fld)
    if dt > stage[-1] * (1.0 + 1e-9):
        raise CflViolationError(f"dt = {dt:.3e} exceeds CFL bound {stage[-1]:.3e}")
    return _advance(problem, consts, fld, stage, dt, fld.time + dt)


def solve(problem: Problem, dt_override: Optional[float] = None) -> SolveResult:
    """March from t = 0 to T, capturing snapshots exactly at requested times.

    With ``dt_override`` the step is fixed (still clipped at capture times and
    checked against CFL each step), which keeps parameter sweeps aligned in
    time.
    """
    requested = problem.controls.snapshot_times or (problem.T,)
    requested = tuple(sorted(set(requested)))
    targets = tuple(sorted(set(requested + (problem.T,))))
    fld = problem.initial_field()
    consts = _constants(problem)
    snapshots = []
    data_lo = float(np.min(fld.values))
    data_hi = float(np.max(fld.values))
    overshoot = 0.0
    steps = 0
    min_dt = math.inf
    if targets and targets[0] == 0.0:
        if 0.0 in requested:
            snapshots.append(fld)
        targets = targets[1:]
    t_eps = 1e-12 * max(1.0, problem.T)
    for t_target in targets:
        while fld.time < t_target - t_eps:
            stage = _stage(problem, consts, fld)
            dt_max = stage[-1]
            dt = dt_max if dt_override is None else dt_override
            if dt > dt_max * (1.0 + 1e-9):
                raise CflViolationError(
                    f"fixed dt = {dt:.3e} exceeds CFL bound {dt_max:.3e} at t = {fld.time:.6g}"
                )
            t_new = fld.time + dt
            if dt >= t_target - fld.time - t_eps:
                dt, t_new = t_target - fld.time, t_target
            fld = _advance(problem, consts, fld, stage, dt, t_new)
            steps += 1
            min_dt = min(min_dt, dt)
            if steps > problem.controls.max_steps:
                raise BudgetExceededError(
                    f"horizon T = {problem.T} unreachable within {problem.controls.max_steps} steps"
                )
            if consts.edge is not None:
                data_lo = min(data_lo, float(np.min(fld.values[consts.edge])))
                data_hi = max(data_hi, float(np.max(fld.values[consts.edge])))
            overshoot = max(
                overshoot,
                float(np.max(fld.values)) - data_hi,
                data_lo - float(np.min(fld.values)),
                0.0,
            )
        if t_target in requested:
            snapshots.append(fld)
    stats = SolveStats(
        steps=steps,
        min_dt=min_dt if steps else 0.0,
        overshoot=overshoot,
        final_time=fld.time,
    )
    return SolveResult(snapshots=snapshots, stats=stats)
