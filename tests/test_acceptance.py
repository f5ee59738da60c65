"""Acceptance gate: one test per criterion, tolerances fixed up front.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.
"""

import math
import time

import numpy as np
import pytest

from plaplab import (
    Boundary,
    C1Params,
    ExactSolution,
    FamilyCase,
    GridSpec,
    OperatorSpec,
    PerturbationAxis,
    Problem,
    ScalarField,
    SolutionId,
    SolverControls,
    SweepPlan,
    c1_certify,
    compare_theory,
    diffusion_matrix,
    estimate_holder,
    family_rate,
    residual,
    run_sweep,
    solve,
    sqrt_matrix,
    sup_diff_closed_form,
    theoretical_rate,
)
from tests.test_operators import random_spec


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def heat_problem(n: int, T: float = 0.5) -> Problem:
    grid = GridSpec.line(0.0, 2.0 * math.pi, n, Boundary.PERIODIC)
    return Problem(spec=OperatorSpec.normalized(3.0), grid=grid, initial=np.sin, T=T)


def heat_error(n: int, T: float = 0.5) -> float:
    prob = heat_problem(n, T)
    res = solve(prob)
    x = prob.grid.axis_coords(0)
    exact = math.exp(-2.0 * T) * np.sin(x)
    return float(np.max(np.abs(res.snapshots[-1].values - exact)))


GAP_TIMES = tuple(np.linspace(0.0625, 0.5, 8))

# Gap tables and fits of criteria 02 and 08 as the scheme produced them before
# the ghost-cell stencil rewrite. A refactor must reproduce them to 1e-12
# relative; a deliberate change of the scheme updates them in the same change.
GOLDEN = {
    2: {
        "gaps": (0.022290300711618305, 0.01131927118801368, 0.005703848475570761,
                 0.002863063963206791, 0.0014343278001248128, 0.000717864220243003),
        "slope": 0.9919481518069057,
        # re-recorded after the reflection-exact 1D second difference moved it
        # by 1.08e-8 relative
        "floor": 5.293404823247805e-06,
    },
    8: {
        "gaps": (0.14136212620504318, 0.10422216976820664, 0.07281334728408473,
                 0.04905675751010319, 0.03225942316902597),
        "slope": 0.5350344605455676,
        "floor": 0.0,  # the 1D curvature-mode base member does not move
    },
}


def assert_golden(num: int, fit) -> None:
    want = GOLDEN[num]
    assert fit.gap_list == pytest.approx(want["gaps"], rel=1e-12, abs=0)
    assert fit.slope == pytest.approx(want["slope"], rel=1e-12, abs=0)
    assert fit.error_floor == pytest.approx(want["floor"], rel=1e-12, abs=0)


def normalized_plan() -> SweepPlan:
    """Criterion 02's sweep: normalized(3 + 2^-k) heat modes on 256 nodes."""
    return SweepPlan(
        base=heat_problem(256),
        axis=PerturbationAxis.P,
        values=tuple(2.0 ** (-k) for k in range(3, 9)),
        gap_times=GAP_TIMES,
        theory=family_rate(FamilyCase.NORMALIZED, theta=1.0, q=3.0),
    )


def regularization_plan() -> SweepPlan:
    """Criterion 08's sweep: regularized_pq(1, 2, 2^-k) curvature modes on 1,024 nodes."""
    grid = GridSpec.line(0.0, 2.0 * math.pi, 1024, Boundary.PERIODIC)
    base = Problem(
        spec=OperatorSpec.regularized_pq(1.0, 2.0, 0.0), grid=grid, initial=np.sin,
        T=0.25, controls=SolverControls(eps_num=grid.spacing[0]),
    )
    return SweepPlan(
        base=base,
        axis=PerturbationAxis.EPS,
        values=tuple(2.0 ** (-k) for k in range(2, 7)),
        gap_times=tuple(np.linspace(0.05, 0.25, 5)),
        theory=family_rate(FamilyCase.REGULARIZED, theta=1.0, p_prime=2.0),
    )


@pytest.fixture(scope="module")
def normalized_sweep():
    plan = normalized_plan()
    start = time.perf_counter()
    fit = run_sweep(plan)
    return fit, plan.base, time.perf_counter() - start


def test_criterion_01_heat_mode_accuracy():
    start = time.perf_counter()
    err_256 = heat_error(256)
    err_512 = heat_error(512)
    elapsed = time.perf_counter() - start
    ok = err_256 <= 5e-3 and err_256 / err_512 >= 3.0 and elapsed < 10.0
    report(1, "heat-mode accuracy", ok,
           f"err(N=256) = {err_256:.3e} (tol 5e-3), refinement ratio "
           f"{err_256 / err_512:.2f} (>= 3), {elapsed:.1f}s (< 10s)")


def test_criterion_02_normalized_rate_recovery(normalized_sweep):
    fit, _, elapsed = normalized_sweep
    verdict = compare_theory(fit, margin=0.1)
    ok = 0.9 <= fit.slope <= 1.1 and verdict.consistent and elapsed < 120.0
    report(2, "normalized rate recovery", ok,
           f"fitted slope {fit.slope:.4f} in [0.9, 1.1] vs attained nu = 1, "
           f"r^2 = {fit.r_squared:.6f}, {elapsed:.1f}s (< 2min)")
    assert_golden(2, fit)


def test_criterion_03_oracle_agreement(normalized_sweep):
    fit, base, _ = normalized_sweep
    pts = base.grid.axis_coords(0)
    ref = ExactSolution(SolutionId.HEAT_MODE, p=3.0)
    worst = 0.0
    for eps, gap, excluded in zip(fit.eps_list, fit.gap_list, fit.excluded):
        if excluded:
            continue
        pert = ExactSolution(SolutionId.HEAT_MODE, p=3.0 + eps)
        oracle = sup_diff_closed_form(pert, ref, pts, GAP_TIMES)
        worst = max(worst, abs(gap - oracle))
    ok = worst <= fit.error_floor and fit.error_floor <= 1e-3
    report(3, "oracle agreement", ok,
           f"max |solver gap - closed-form gap| = {worst:.2e} within floor "
           f"{fit.error_floor:.2e} (floor <= 1e-3)")


def test_criterion_04_barenblatt_verification():
    sol = ExactSolution(SolutionId.BARENBLATT, p=3.0, n=1, A=1.0)
    # clearance from the free boundary: support radius >= 3.3 on [1, 2]
    grid = GridSpec.line(-2.0, 2.0, 257, Boundary.DIRICHLET)
    assert sol.support_radius(1.0) - 2.0 > 1.0

    # (a) discrete residual of the exact solution follows the h^2 trend
    points = [(0.5, 1.5), (1.0, 1.2), (1.7, 1.8), (0.3, 1.05)]
    h_levels = [8e-3, 4e-3, 2e-3]
    trend_ok = True
    detail_res = []
    for r, t in points:
        r0 = abs(residual(sol, r, t=t, mode="discrete", h=h_levels[0], clearance=0.05))
        c_trend = r0 / h_levels[0] ** 2
        for h in h_levels[1:]:
            rh = abs(residual(sol, r, t=t, mode="discrete", h=h, clearance=0.05))
            trend_ok = trend_ok and rh <= 10.0 * c_trend * h * h
        detail_res.append(r0)

    # (b) the scheme reproduces the exact solution at T
    prob = Problem(
        spec=OperatorSpec.variational(3.0), grid=grid,
        initial=lambda x: sol.eval_radial(np.abs(x), 1.0), T=1.0,
        dirichlet=lambda x, t: sol.eval_radial(np.abs(x), 1.0 + t),
    )
    res = solve(prob)
    x = grid.axis_coords(0)
    err = float(np.max(np.abs(res.snapshots[-1].values - sol.eval_radial(np.abs(x), 2.0))))
    # local diffusion coefficient: largest eigenvalue of A along the exact data
    f0 = prob.initial_field()
    from plaplab.grid import gradient_arrays, interior_mask
    r2 = sum(g * g for g in gradient_arrays(f0))[interior_mask(grid)]
    scale = max(1.0, 2.0 * math.sqrt(float(np.max(r2))))
    tol = 10.0 * 5e-3 * scale
    ok = trend_ok and err <= tol
    report(4, "self-similar solution verification", ok,
           f"discrete residual h^2 trend holds, solver err {err:.3e} <= {tol:.3e}")


def test_criterion_05_square_root_identity():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(10_000):
        spec = random_spec(rng)
        n = int(rng.integers(1, 4))
        xi = rng.normal(size=n)
        nrm = np.linalg.norm(xi)
        if nrm == 0.0:
            continue
        xi *= 10.0 ** rng.uniform(-3, 3) / nrm
        A = diffusion_matrix(spec, xi)
        S = sqrt_matrix(spec, xi)
        rel = np.linalg.norm(S @ S - A, 2) / (1.0 + np.linalg.norm(A, 2))
        worst = max(worst, rel)
    ok = worst <= 1e-10
    report(5, "square-root identity", ok,
           f"max |S^2 - A| / (1 + |A|) = {worst:.2e} over 10^4 samples (tol 1e-10)")


def test_criterion_06_c1_certification():
    mags = np.geomspace(1e-3, 1e3, 25)
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    base = OperatorSpec.variational(3.0)
    good = c1_certify(base, PerturbationAxis.P, eps, mags,
                      C1Params(alpha=1.0, beta=0.5, c_A=10.0))
    bad = c1_certify(base, PerturbationAxis.P, eps, mags,
                     C1Params(alpha=1.0, beta=0.0, c_A=10.0))
    bad_at_large_xi = np.linalg.norm(bad.worst_xi) >= 1e2
    ok = good.passed and not bad.passed and bad_at_large_xi
    report(6, "closeness certification", ok,
           f"beta = q/2-1 passes (ratio {good.max_ratio:.2f} <= 10); "
           f"beta = q/2-1-0.5 fails at |xi| = {np.linalg.norm(bad.worst_xi):.0f}")


def test_criterion_07_rate_exponent_tables():
    thetas = (0.25, 0.5, 1.0)
    pp_grid = (2.0, 2.5, 3.5, 5.0)
    worst = 0.0

    def check(got, want):
        nonlocal worst
        worst = max(worst, abs(got - want))

    for th in thetas:
        # variational family, singular and degenerate windows
        check(family_rate(FamilyCase.VARIATIONAL_SINGULAR, theta=th, p=1.5, q=1.8).nu_sup,
              th)
        for q in (2.0, 3.0, 4.0):
            got = family_rate(FamilyCase.VARIATIONAL_DEGENERATE, theta=th, p=q + 0.5, q=q)
            check(got.nu_sup, 2.0 * th / (2.0 * th + (1.0 - th) * q))
        # general (p, p') family incl. the matched-exponent rate
        check(family_rate(FamilyCase.GENERAL_PQ_SINGULAR, theta=th,
                          p_prime=1.5, q_prime=1.8).nu_sup, th)
        for qp in (2.0, 3.0, 4.0, 6.0):
            got = family_rate(FamilyCase.GENERAL_PQ_DEGENERATE, theta=th,
                              p_prime=qp + 0.5, q_prime=qp)
            check(got.nu_sup, 2.0 * th / (2.0 * th + (1.0 - th) * qp))
        for qp in (1.5, 2.0, 3.0, 4.0, 6.0):
            got = family_rate(FamilyCase.GENERAL_PQ_MATCHED, theta=th, q_prime=qp)
            check(got.nu_sup, theoretical_rate(1.0, qp / 2.0 - 1.0, th))
        # regularization cases (1)-(4) over the p' grid
        for pp in pp_grid:
            got = family_rate(FamilyCase.REGULARIZED, theta=th, p_prime=pp)
            if pp == 2.0:
                want, attained = th / 2.0, False
            elif pp < 3.0:
                want, attained = (pp - 2.0) * th, True
            elif pp <= 4.0:
                want, attained = th, False
            else:
                want, attained = th / (1.0 + (1.0 - th) * (pp - 4.0)), False
            check(got.nu_sup, want)
            assert got.attained == attained, (pp, th)
    ok = worst <= 1e-12
    report(7, "rate-exponent tables", ok,
           f"max |table - hand formula| = {worst:.2e} over theta x p' grid (tol 1e-12)")


def test_criterion_08_regularization_rate():
    start = time.perf_counter()
    fit = run_sweep(regularization_plan())
    verdict = compare_theory(fit, margin=0.1)
    elapsed = time.perf_counter() - start
    ok = fit.slope >= 0.4 and verdict.consistent and elapsed < 300.0
    report(8, "curvature-mode regularization rate", ok,
           f"fitted slope {fit.slope:.3f} >= 0.4, one-sided vs open sup 0.5, "
           f"{elapsed:.0f}s (< 5min)")
    assert_golden(8, fit)


def test_criterion_09_maximum_principle():
    rng = np.random.default_rng(1234)
    grid = GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)
    worst = 0.0
    for trial in range(100):
        fam = trial % 6
        if fam == 0:
            spec = OperatorSpec.normalized(rng.uniform(1.0, 5.0))
        elif fam == 1:
            spec = OperatorSpec.variational(rng.uniform(1.1, 4.0))
        elif fam == 2:
            spec = OperatorSpec.general_pq(rng.uniform(1.1, 4.0), rng.uniform(1.2, 4.0))
        elif fam == 3:
            spec = OperatorSpec.regularized_pq(rng.uniform(1.0, 3.0),
                                               rng.uniform(2.0, 4.0),
                                               rng.uniform(0.0, 0.5))
        elif fam == 4:
            spec = OperatorSpec.biased_infinity(0.0)
        else:
            spec = OperatorSpec.biased_infinity_regularized(0.0, rng.uniform(0.0, 0.3),
                                                            0.0)
        coefs = rng.normal(size=3) / (1.0 + np.arange(3.0))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=3)

        def init(x, c=coefs, ph=phases):
            return sum(ck * np.sin((k + 1) * x + pk)
                       for k, (ck, pk) in enumerate(zip(c, ph)))

        prob = Problem(spec=spec, grid=grid, initial=init, T=0.02)
        f0 = prob.initial_field()
        lo, hi = float(np.min(f0.values)), float(np.max(f0.values))
        res = solve(prob)
        final = res.snapshots[-1]
        worst = max(worst,
                    float(np.max(final.values)) - hi,
                    lo - float(np.min(final.values)),
                    res.stats.overshoot)
    ok = worst <= 1e-12
    report(9, "discrete maximum principle", ok,
           f"max range violation {worst:.2e} over 100 randomized problems (tol 1e-12)")


def test_criterion_10_elliptic_residuals():
    rng = np.random.default_rng(77)
    radii = 0.01 + 0.99 * rng.random(100)
    worst = 0.0
    for p in (2.5, 3.0, 4.0):
        for n in (1, 2):
            for sid in (SolutionId.RADIAL_ELLIPTIC, SolutionId.TORSION_RADIAL):
                sol = ExactSolution(sid, p=p, n=n, c=1.0)
                worst = max(worst, max(abs(residual(sol, r, clearance=5e-3))
                                       for r in radii))
            if p > n:
                sol = ExactSolution(SolutionId.FUNDAMENTAL, p=p, n=n)
                worst = max(worst, max(abs(residual(sol, r, clearance=5e-3))
                                       for r in radii))
    ok = worst <= 1e-10
    report(10, "elliptic example residuals", ok,
           f"max analytic residual {worst:.2e} at 100 radii in (0.01, 1) (tol 1e-10)")


def test_criterion_11_holder_estimator():
    grid = GridSpec.line(-1.0, 1.0, 1025, Boundary.DIRICHLET)
    rough = ScalarField.from_function(grid, lambda x: np.sqrt(np.abs(x)))
    smooth = ScalarField.from_function(grid, lambda x: x)
    th_rough = estimate_holder(rough).theta_hat
    th_smooth = estimate_holder(smooth).theta_hat
    ok = 0.45 <= th_rough <= 0.55 and 0.95 <= th_smooth <= 1.0
    report(11, "Hoelder estimator", ok,
           f"theta(|x|^0.5) = {th_rough:.3f} in [0.45, 0.55]; "
           f"theta(affine) = {th_smooth:.3f} in [0.95, 1.0]")
