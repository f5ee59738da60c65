"""Perturbation sweeps, sup-norm gap measurement, and exponent fitting.

A ``SweepPlan`` builds every problem its sweep solves when it is made, so bad
member data fails before any solve. ``run_sweep`` solves the base and every
perturbed problem in one lockstep loop (``evolve.solve_lockstep``), each step
the smallest CFL bound of that step among them; it measures the largest
sup-norm gap over the requested capture times and fits the decay exponent by
ordinary least squares in log-log coordinates. Gaps not above ten times the
measured discretization floor (estimated from one refinement pair on the
base problem) reflect scheme error rather than operator closeness and are
excluded from the fit. Every sweep also estimates the Hoelder exponent of
the base's last capture.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PlapError
from .evolve import Problem, solve, solve_lockstep
from .evolve import cfl_dt  # noqa: F401  bound here for perfbench/hooks.py
from .grid import FLOAT_FMT, Boundary, ScalarField, restrict_to, save_json, sup_diff
from .operators import OperatorSpec, PerturbationAxis, perturb_spec
from .rates import RatePrediction

logger = logging.getLogger(__name__)


class HarnessError(PlapError):
    pass


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def fit_loglog(pairs: Sequence[tuple[float, float]]) -> FitResult:
    """OLS fit of log(gap) against log(eps); the slope is the exponent.

    A size or gap <= 0 or not finite, fewer than three pairs or degenerate
    abscissae are rejected (``run_sweep`` excludes every gap not above ten
    times its floor, and ``estimate_holder`` keeps only oscillations > 0).
    """
    pairs = list(pairs)
    if not all(e > 0 and math.isfinite(e) for e, _ in pairs):
        raise ValueError("perturbation sizes must be > 0 and finite")
    if not all(g > 0 and math.isfinite(g) for _, g in pairs):
        raise ValueError("gaps must be > 0 and finite")
    if len(pairs) < 3:
        raise ValueError(f"need >= 3 pairs to fit, have {len(pairs)}")
    le = np.log([e for e, _ in pairs])
    lg = np.log([g for _, g in pairs])
    if np.ptp(le) == 0.0:
        raise ValueError("degenerate abscissae: all perturbation sizes equal")
    A = np.vstack([le, np.ones_like(le)]).T
    coef, *_ = np.linalg.lstsq(A, lg, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    pred = A @ coef
    ss_res = float(np.sum((lg - pred) ** 2))
    ss_tot = float(np.sum((lg - np.mean(lg)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, r2)


@dataclass(frozen=True)
class RateFit:
    """Measured gaps, fitted exponent, and the theory it is compared against."""

    eps_list: tuple[float, ...]
    gap_list: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    excluded: tuple[bool, ...]
    error_floor: float
    theory_nu: Optional[float] = None
    theory_attained: Optional[bool] = None
    holder_theta: Optional[float] = None


@dataclass(frozen=True)
class SweepPlan:
    """Base problem plus the perturbation schedule, and every problem it solves.

    ``values`` must be strictly decreasing and positive (at least four).
    ``data_for_spec`` optionally maps a member's operator spec to its
    (initial, dirichlet), for sweeps whose data tracks the perturbed parameter;
    the boundary gap it induces is part of the measured quantity. Without it
    every member keeps the base's data.

    Construction builds, and so checks, every problem the sweep solves:
    ``problems`` is the base capturing the gap times, then one member per
    value along ``axis``; ``refined`` is that base on ``grid.refine()`` with
    ``eps_num`` back at its grid-tied default, the floor's solve. The plan
    checks that the gap times lie in [0, T]; which times are captured (and
    so become ``gap_times``) is the base's rule, ``Problem.captures``. The
    times come from ``gap_times`` or, where it is empty, from the base's
    ``controls.snapshot_times``; a plan given both is an error.
    """

    base: Problem
    axis: PerturbationAxis
    values: tuple[float, ...]
    gap_times: tuple[float, ...] = ()
    theory: Optional[RatePrediction] = None
    data_for_spec: Optional[Callable[[OperatorSpec], tuple]] = None
    problems: tuple[Problem, ...] = dc_field(init=False, repr=False, compare=False)
    refined: Problem = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 4:
            raise ValueError("need >= 4 perturbation values")
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise ValueError(f"perturbation values must be finite and > 0, got {vals}")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise ValueError("perturbation values must be strictly decreasing")
        times = tuple(float(t) for t in self.gap_times)
        if times and self.base.controls.snapshot_times:
            raise ValueError("gap times given twice: both gap_times and the base's snapshot_times")
        times = times or self.base.controls.snapshot_times
        if not all(0 <= t <= self.base.T for t in times):  # NaN included
            raise ValueError("gap times must lie in [0, T]")
        base = replace(self.base, controls=replace(self.base.controls,
                                                   snapshot_times=tuple(sorted(times))))
        object.__setattr__(self, "gap_times", base.captures)
        problems = [base]
        for v in vals:
            spec = perturb_spec(base.spec, self.axis, v)
            initial, dirichlet = base.initial, base.dirichlet
            if self.data_for_spec is not None:
                initial, dirichlet = self.data_for_spec(spec)
            problems.append(replace(base, spec=spec, initial=initial, dirichlet=dirichlet))
        object.__setattr__(self, "problems", tuple(problems))
        object.__setattr__(self, "refined", replace(
            base, grid=base.grid.refine(), controls=replace(base.controls, eps_num=None)))


def run_sweep(plan: SweepPlan) -> RateFit:
    """Solve the plan's problems in lockstep, each step at the smallest CFL
    bound of that step among them, and the refined base alone at its own
    bound; measure the floor and the gaps, and fit the exponent."""
    try:
        base_result, *rest = solve_lockstep(plan.problems)
        fine_result = solve(plan.refined)
    except PlapError as err:
        raise HarnessError(f"sweep aborted: {err}") from err
    base_snaps = base_result.snapshots
    floor = max(sup_diff(coarse, restrict_to(fine, plan.base.grid))
                for coarse, fine in zip(base_snaps, fine_result.snapshots))
    gaps = [max(sup_diff(snap, base_snap) for snap, base_snap in zip(res.snapshots, base_snaps))
            for res in rest]

    excluded = tuple(not g > 10.0 * floor for g in gaps)  # a zero gap at a zero floor too
    survivors = [(e, g) for e, g, ex in zip(plan.values, gaps, excluded) if not ex]
    if len(survivors) < 3:
        raise HarnessError(
            f"only {len(survivors)} gaps above 10x the error floor {floor:.3e}; "
            "refine the grid or enlarge the perturbations"
        )
    if len(survivors) < len(gaps):
        logger.warning(
            "excluded %d gaps not above 10x the error floor %.3e",
            len(gaps) - len(survivors), floor,
        )
    fit = fit_loglog(survivors)
    theory_nu = plan.theory.nu_sup if plan.theory else None
    theory_att = plan.theory.attained if plan.theory else None
    est = estimate_holder(base_snaps[-1])
    return RateFit(
        eps_list=plan.values,
        gap_list=tuple(gaps),
        slope=fit.slope,
        intercept=fit.intercept,
        r_squared=fit.r_squared,
        excluded=excluded,
        error_floor=floor,
        theory_nu=theory_nu,
        theory_attained=theory_att,
        holder_theta=None if est.flat else est.theta_hat,
    )


# -- Hoelder estimation --------------------------------------------------------


# On periodic grids a lag whose oscillation reaches this share of the range
# ends its axis's scan: the envelope of a periodic field is symmetric about
# half the period, so it flattens before the largest lag. Dirichlet grids have
# no forced plateau; there the stop moved off-node |x|^1/2 from 0.549 to 0.557.
_SATURATION = 0.75


@dataclass(frozen=True)
class HolderEstimate:
    theta_hat: float
    L_hat: float
    flat: bool = False


def estimate_holder(field: ScalarField) -> HolderEstimate:
    """Fit the oscillation envelope max |u(x) - u(y)| ~ L |x - y|^theta.

    Along each axis, for 24 log-spaced lags from 8 nodes to half the axis, the
    largest oscillation over every node pair that lag apart is fit against
    separation in log-log coordinates; on periodic grids each axis's scan stops
    at the first lag whose oscillation reaches 3/4 of the field's range. The
    slope, clipped to (0, 1], estimates the Hoelder exponent; exp(intercept)
    estimates the constant. Constant fields are reported as flat.
    """
    vals = field.values
    span = np.ptp(vals)
    if span == 0.0:
        return HolderEstimate(theta_hat=float("nan"), L_hat=0.0, flat=True)
    stop = _SATURATION * span if field.grid.boundary is Boundary.PERIODIC else np.inf
    dists, oscs = [], []
    for axis in range(field.grid.dim):
        n = field.grid.shape[axis]
        h = field.grid.spacing[axis]
        # deduplicated in a set: numpy's unique() imports numpy.ma
        lags = {int(lag) for lag in np.round(np.geomspace(8, max(n // 2, 9), 24)) if lag < n}
        flat = np.moveaxis(vals, axis, 0).reshape(n, -1)
        for lag in sorted(lags):
            s = float(np.max(np.abs(flat[lag:] - flat[: n - lag])))
            if s >= stop:
                break
            if s > 0:
                dists.append(lag * h)
                oscs.append(s)
    if len(dists) < 3:
        return HolderEstimate(theta_hat=float("nan"), L_hat=0.0, flat=True)
    fit = fit_loglog(list(zip(dists, oscs)))
    theta = min(max(fit.slope, 1e-9), 1.0)
    return HolderEstimate(theta_hat=theta, L_hat=float(np.exp(fit.intercept)), flat=False)


# -- theory comparison ---------------------------------------------------------


@dataclass(frozen=True)
class TheoryVerdict:
    consistent: bool
    detail: str


def compare_theory(fit: RateFit, margin: float) -> TheoryVerdict:
    """Attained rates are two-sided; open suprema only bound the slope below."""
    if not (math.isfinite(margin) and margin > 0):
        raise ValueError(f"margin must be finite and > 0, got {margin}")
    if fit.theory_nu is None or fit.theory_attained is None:
        raise ValueError("fit carries no theoretical rate to compare against")
    nu = fit.theory_nu
    if fit.theory_attained:
        ok = abs(fit.slope - nu) <= margin
        detail = f"attained nu = {nu:.6g}: |slope - nu| = {abs(fit.slope - nu):.3g}"
    else:
        ok = fit.slope >= nu - margin
        detail = f"open sup nu = {nu:.6g}: slope = {fit.slope:.6g} (one-sided)"
    return TheoryVerdict(consistent=ok, detail=detail)


# -- emission ------------------------------------------------------------------


def write_rate_table(fit: RateFit, path) -> None:
    with open(path, "w") as fh:
        fh.write("eps,gap,excluded\n")
        for e, g, ex in zip(fit.eps_list, fit.gap_list, fit.excluded):
            fh.write(FLOAT_FMT % e + "," + FLOAT_FMT % g + ","
                     + ("true" if ex else "false") + "\n")


def write_fit_summary(fit: RateFit, path, consistent: Optional[bool] = None) -> None:
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "theory_nu": fit.theory_nu,
        "theory_attained": fit.theory_attained,
        "consistent": consistent,
        "error_floor": fit.error_floor,
    }
    save_json(payload, path)
