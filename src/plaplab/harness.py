"""Perturbation sweeps, sup-norm gap measurement, and exponent fitting.

A sweep solves the base and each perturbed problem at one shared step, capped
at each solve's own CFL bound, measures the largest sup-norm gap over the
requested capture times, and fits the decay exponent by ordinary least squares
in log-log coordinates. Gaps below ten times the measured discretization floor
(estimated from one refinement pair on the base problem) reflect scheme error
rather than operator closeness and are excluded from the fit.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PlapError
from .evolve import Problem, SolveResult, cfl_dt, solve
from .grid import _FMT, Boundary, ScalarField, restrict_to, sup_diff
from .operators import PerturbationAxis, perturb_spec
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

    Zero gaps are dropped with a warning; fewer than three surviving pairs or
    degenerate abscissae are rejected.
    """
    kept = [(e, g) for e, g in pairs]
    if any(e <= 0 for e, _ in kept):
        raise ValueError("perturbation sizes must be > 0")
    dropped = [(e, g) for e, g in kept if g <= 0]
    if dropped:
        logger.warning("dropping %d zero gaps from the fit", len(dropped))
        kept = [(e, g) for e, g in kept if g > 0]
    if len(kept) < 3:
        raise ValueError(f"need >= 3 positive pairs to fit, have {len(kept)}")
    le = np.log([e for e, _ in kept])
    lg = np.log([g for _, g in kept])
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
    """Base problem plus the perturbation schedule.

    ``values`` must be strictly decreasing and positive (at least four), and
    each must give a member along ``axis``.
    ``data_for_value`` optionally rebuilds (initial, dirichlet) per value for
    sweeps whose boundary data tracks the perturbed parameter; the boundary
    gap it induces is part of the measured quantity.
    """

    base: Problem
    axis: PerturbationAxis
    values: tuple[float, ...]
    gap_times: tuple[float, ...] = ()
    theory: Optional[RatePrediction] = None
    data_for_value: Optional[Callable[[float], tuple]] = None
    holder_pairs: Optional[int] = None  # estimate theta on the base final snapshot

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 4:
            raise ValueError("need >= 4 perturbation values")
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise ValueError(f"perturbation values must be finite and > 0, got {vals}")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise ValueError("perturbation values must be strictly decreasing")
        for v in vals:  # every member must exist before any solve
            perturb_spec(self.base.spec, self.axis, v)
        times = tuple(float(t) for t in self.gap_times) or (self.base.T,)
        if not all(0 <= t <= self.base.T for t in times):  # NaN included
            raise ValueError("gap times must lie in [0, T]")
        object.__setattr__(self, "gap_times", tuple(sorted(set(times))))
        pairs = self.holder_pairs  # checked before any solve; a bool is no count
        if pairs is not None and (type(pairs) is not int or pairs < 100):
            raise ValueError(f"holder_pairs must be an int >= 100, got {pairs!r}")


def _problem_for_value(plan: SweepPlan, value: float) -> Problem:
    spec = perturb_spec(plan.base.spec, plan.axis, value)
    prob = replace(plan.base, spec=spec)
    if plan.data_for_value is not None:
        initial, dirichlet = plan.data_for_value(value)
        prob = replace(prob, initial=initial, dirichlet=dirichlet)
    return prob


def _with_snapshots(problem: Problem, times: tuple[float, ...]) -> Problem:
    controls = replace(problem.controls, snapshot_times=times)
    return replace(problem, controls=controls)


def _measure_floor(base: Problem, times: tuple[float, ...],
                   base_result: SolveResult) -> float:
    # eps_num reverts to its grid-tied default on the refined grid
    fine = replace(
        base,
        grid=base.grid.refine(),
        controls=replace(base.controls, snapshot_times=times, eps_num=None),
    )
    fine_result = solve(fine)
    floor = 0.0
    for coarse_snap, fine_snap in zip(base_result.snapshots, fine_result.snapshots):
        floor = max(floor, sup_diff(coarse_snap, restrict_to(fine_snap, base.grid)))
    return floor


def run_sweep(plan: SweepPlan) -> RateFit:
    """Solve base and perturbed problems, measure gaps, and fit the exponent."""
    base = _with_snapshots(plan.base, plan.gap_times)
    perturbed = [_with_snapshots(_problem_for_value(plan, v), plan.gap_times)
                 for v in plan.values]

    dt = min(cfl_dt(p, p.initial_field()) for p in [base] + perturbed)
    try:
        results = [solve(p, dt_override=dt) for p in [base] + perturbed]
    except PlapError as err:
        raise HarnessError(f"sweep aborted: {err}") from err
    base_result, rest = results[0], results[1:]

    gaps = []
    for res in rest:
        gap = max(
            sup_diff(snap, base_snap)
            for snap, base_snap in zip(res.snapshots, base_result.snapshots)
        )
        gaps.append(gap)

    floor = _measure_floor(base, plan.gap_times, base_result)
    excluded = tuple(g < 10.0 * floor for g in gaps)
    survivors = [(e, g) for e, g, ex in zip(plan.values, gaps, excluded) if not ex]
    if len(survivors) < 3:
        raise HarnessError(
            f"only {len(survivors)} gaps above 10x the error floor {floor:.3e}; "
            "refine the grid or enlarge the perturbations"
        )
    if len(survivors) < len(gaps):
        logger.warning(
            "excluded %d gaps below 10x the error floor %.3e",
            len(gaps) - len(survivors), floor,
        )
    fit = fit_loglog(survivors)
    theory_nu = plan.theory.nu_sup if plan.theory else None
    theory_att = plan.theory.attained if plan.theory else None
    holder_theta = None
    if plan.holder_pairs is not None:
        est = estimate_holder(base_result.snapshots[-1], pair_count=plan.holder_pairs)
        holder_theta = None if est.flat else est.theta_hat
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
        holder_theta=holder_theta,
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


def estimate_holder(
    field: ScalarField,
    pair_count: int = 20_000,
    seed: int = 0,
    lag_min: int = 8,
    max_fraction: float = 0.5,
) -> HolderEstimate:
    """Fit the oscillation envelope max |u(x) - u(y)| ~ L |x - y|^theta.

    Node pairs are grouped by separation (log-spaced lags along each axis);
    the per-separation maximum oscillation is fit against separation in
    log-log coordinates; on periodic grids each axis's scan stops at the first
    lag whose oscillation reaches 3/4 of the field's range. The slope, clipped
    to (0, 1], estimates the Hoelder exponent; exp(intercept) estimates the
    constant. Constant fields are reported as flat.
    """
    if pair_count < 100:
        raise ValueError("pair_count must be >= 100")
    vals = field.values
    if vals.size < 2:
        raise ValueError("field needs at least two nodes")
    span = np.ptp(vals)
    if span == 0.0:
        return HolderEstimate(theta_hat=float("nan"), L_hat=0.0, flat=True)
    stop = _SATURATION * span if field.grid.boundary is Boundary.PERIODIC else np.inf
    rng = np.random.default_rng(seed)
    dists, oscs = [], []
    for axis in range(field.grid.dim):
        n = field.grid.shape[axis]
        h = field.grid.spacing[axis]
        top = max(int(n * max_fraction), lag_min + 1)
        lags = np.unique(np.round(np.geomspace(lag_min, top, 24)).astype(int))
        lags = lags[lags < n]
        per_lag = max(pair_count // (len(lags) * field.grid.dim), 16)
        moved = np.moveaxis(vals, axis, 0)
        flat = moved.reshape(n, -1)
        for lag in lags:
            m = n - lag
            if m < 1:
                continue
            if m * flat.shape[1] <= per_lag:
                s = float(np.max(np.abs(flat[lag:] - flat[: n - lag])))
            else:
                rows = rng.integers(0, m, size=per_lag)
                cols = rng.integers(0, flat.shape[1], size=per_lag)
                s = float(np.max(np.abs(flat[rows + lag, cols] - flat[rows, cols])))
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
    if margin <= 0:
        raise ValueError("margin must be > 0")
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
            fh.write(_FMT % e + "," + _FMT % g + "," + ("true" if ex else "false") + "\n")


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
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
