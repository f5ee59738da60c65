import json
import math
from dataclasses import replace

import numpy as np
import pytest

from plaplab import (
    Boundary,
    FamilyCase,
    GridSpec,
    OperatorSpec,
    PerturbationAxis,
    Problem,
    RateFit,
    ScalarField,
    SweepPlan,
    cfl_dt,
    compare_theory,
    estimate_holder,
    family_rate,
    fit_loglog,
    run_sweep,
    solve,
    solve_lockstep,
    sup_diff,
    write_fit_summary,
    write_rate_table,
)
from plaplab.harness import HarnessError
from tests.test_acceptance import normalized_plan, regularization_plan


class TestFitLogLog:
    def test_exact_power_law(self):
        fit = fit_loglog([(1.0, 1.0), (0.5, 0.5), (0.25, 0.25)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_in_intercept(self):
        eps = [1.0, 0.5, 0.25, 0.125]
        fit = fit_loglog([(e, 3.0 * math.sqrt(e)) for e in eps])
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_noisy_recovery(self):
        # 1% multiplicative noise on eps^0.7 over six decades, half-decade spacing
        rng = np.random.default_rng(2024)
        eps = 10.0 ** (-0.5 * np.arange(13))
        gaps = eps ** 0.7 * (1.0 + 0.01 * rng.standard_normal(13))
        fit = fit_loglog(list(zip(eps, gaps)))
        assert abs(fit.slope - 0.7) < 0.02

    def test_zero_gaps_rejected(self):
        # run_sweep excludes every gap not above 10x its floor, so a gap <= 0
        # (or not finite) reaching the fit is an error, as such a size is; an
        # infinite gap used to reach a NaN subtraction and a non-finite size
        # LAPACK, which raised LinAlgError
        for gap in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="gaps must be > 0"):
                fit_loglog([(1.0, 1.0), (0.5, 0.5), (0.25, 0.25), (0.125, gap)])
        for size in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sizes must be > 0"):
                fit_loglog([(1.0, 1.0), (0.5, 0.5), (size, 0.25)])

    def test_two_pairs_rejected(self):
        with pytest.raises(ValueError, match="need >= 3 pairs to fit, have 2"):
            fit_loglog([(1.0, 1.0), (0.5, 0.5)])

    def test_degenerate_abscissae(self):
        with pytest.raises(ValueError):
            fit_loglog([(0.5, 1.0), (0.5, 0.5), (0.5, 0.25)])

    def test_scaling_moves_intercept_only(self):
        pairs = [(1.0, 2.0), (0.5, 1.1), (0.25, 0.49), (0.125, 0.26)]
        a = fit_loglog(pairs)
        b = fit_loglog([(e, 10.0 * g) for e, g in pairs])
        assert b.slope == pytest.approx(a.slope, abs=1e-12)
        assert b.intercept == pytest.approx(a.intercept + math.log(10.0), abs=1e-12)


def heat_sweep_plan(n=64, T=0.25, ks=(3, 4, 5, 6), q=3.0):
    grid = GridSpec.line(0.0, 2.0 * math.pi, n, Boundary.PERIODIC)
    base = Problem(spec=OperatorSpec.normalized(q), grid=grid, initial=np.sin, T=T)
    theory = family_rate(FamilyCase.NORMALIZED, theta=1.0, q=q)
    return SweepPlan(
        base=base,
        axis=PerturbationAxis.P,
        values=tuple(2.0 ** (-k) for k in ks),
        gap_times=tuple(np.linspace(T / 8.0, T, 8)),
        theory=theory,
    )


def growing_gradient_plan():
    grid = GridSpec.line(0.0, 1.0, 64, Boundary.DIRICHLET)
    base = Problem(spec=OperatorSpec.variational(3.0), grid=grid, initial=np.zeros_like,
                   T=0.1, dirichlet=lambda x, t: 4.0 * t * x)
    return SweepPlan(base=base, axis=PerturbationAxis.P, values=(0.2, 0.1, 0.05, 0.025),
                     theory=family_rate(FamilyCase.VARIATIONAL_DEGENERATE, theta=1.0, p=3.2, q=3.0))


class TestRunSweep:
    def test_validation(self):
        plan = heat_sweep_plan()
        with pytest.raises(ValueError):
            SweepPlan(base=plan.base, axis=plan.axis, values=(0.1, 0.1, 0.05, 0.025))
        with pytest.raises(ValueError):
            SweepPlan(base=plan.base, axis=plan.axis, values=(0.1, 0.05))
        with pytest.raises(ValueError):
            SweepPlan(base=plan.base, axis=plan.axis, values=(0.1, 0.05, 0.025, -0.01))
        for v in (math.nan, math.inf):  # NaN passed the order and sign checks
            with pytest.raises(ValueError, match="finite"):
                SweepPlan(base=plan.base, axis=plan.axis, values=(v, 0.2, 0.1, 0.05))
        for t in (-0.1, 1.0, math.nan, math.inf):  # gap times within [0, T]
            with pytest.raises(ValueError, match="gap times"):
                SweepPlan(base=plan.base, axis=plan.axis, values=plan.values, gap_times=(t,))
        with pytest.raises(ValueError):  # no member along the axis: biased has no p
            SweepPlan(base=replace(plan.base, spec=OperatorSpec.biased_infinity(0.0)),
                      axis=plan.axis, values=plan.values)

    def test_normalized_heat_sweep_slope(self):
        fit = run_sweep(heat_sweep_plan())
        assert 0.85 <= fit.slope <= 1.15
        assert fit.r_squared > 0.999
        assert fit.theory_nu == 1.0 and fit.theory_attained
        verdict = compare_theory(fit, margin=0.15)
        assert verdict.consistent

    def test_zero_gaps_at_a_zero_floor_are_excluded(self):
        # constant data: every gap and the floor are exactly 0; a gap of 0 is
        # not above 10x a floor of 0, so it is excluded and the sweep fails as
        # one without gaps to fit, not in the fit
        plan = heat_sweep_plan()
        base = replace(plan.base, initial=lambda x: np.full_like(x, 0.5))
        with pytest.raises(HarnessError, match="only 0 gaps above 10x the error floor"):
            run_sweep(replace(plan, base=base))

    def test_determinism(self):
        a = run_sweep(heat_sweep_plan())
        b = run_sweep(heat_sweep_plan())
        assert a == b

    def test_holder_estimate_wiring(self):
        plan = heat_sweep_plan(n=128)
        fit = run_sweep(plan)
        direct = estimate_holder(solve(plan.problems[0]).snapshots[-1])
        assert fit.holder_theta == pytest.approx(direct.theta_hat, rel=1e-12, abs=0)

    def test_flat_base_capture_reports_no_holder_theta(self):
        # data 0.5 + (p - 3) sin x track the member's p, so the base stays flat
        plan = heat_sweep_plan()

        def data(spec):
            return (lambda x: 0.5 + (spec.p - 3.0) * np.sin(x)), None

        base = replace(plan.base, initial=data(plan.base.spec)[0])
        fit = run_sweep(replace(plan, base=base, data_for_spec=data))
        assert fit.error_floor == 0.0 and not any(fit.excluded)
        assert fit.holder_theta is None

    def test_members_keep_their_first_order_term(self):
        # a member's first-order term a sqrt(|Du|^2 + eps2^2) takes its own
        # eps2 (TestLockstep checks each member against its solve alone).
        # Dropping a gives gaps 0.0241/0.0302/0.0356/0.0411; the base's
        # eps2 = 0 on every member gives 0.0257/0.0334/0.0410/0.0478.
        grid = GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)
        base = Problem(spec=OperatorSpec.biased_infinity_regularized(1.0, 0.0, 0.0),
                       grid=grid, initial=np.sin, T=0.05)
        plan = SweepPlan(base=base, axis=PerturbationAxis.EPS1_EPS2,
                         values=(0.4, 0.2, 0.1, 0.05))
        fit = run_sweep(plan)
        assert fit.gap_list == pytest.approx([0.0385, 0.0351, 0.0369, 0.0456], abs=1e-4)
        base_result, *rest = solve_lockstep(plan.problems)
        for res, gap in zip(rest, fit.gap_list, strict=True):
            want = sup_diff(res.snapshots[-1], base_result.snapshots[-1])
            assert gap == pytest.approx(want, rel=1e-12, abs=0)

    def test_growing_gradient_sweep_completes(self):
        # the gradient, and with it Lambda, grows: the smallest bound of the
        # base and the members falls below its t = 0 value at t = 0.00995213,
        # and every step of the sweep takes the smallest bound of that step
        plan = growing_gradient_plan()
        fit = run_sweep(plan)
        assert len(fit.gap_list) == 4 and all(g > 0.0 for g in fit.gap_list)
        assert compare_theory(fit, 0.1).consistent

    def test_too_few_gaps_above_the_floor_abort(self):
        # two of the members move the solution far less than the refinement
        # floor measures, so two gaps are left to fit
        plan = replace(heat_sweep_plan(), values=(0.25, 0.125, 2e-9, 1e-9))
        with pytest.raises(HarnessError, match="only 2 gaps above 10x the error floor"):
            run_sweep(plan)

    def test_failure_aborts_with_context(self):
        plan = heat_sweep_plan()
        from plaplab import SolverControls
        # 2 steps fail the members; 229 fail only the refinement-floor solve
        # (the members take 224 steps, the floor solve 832)
        for steps in (2, 229):
            crippled = replace(plan.base, controls=SolverControls(max_steps=steps))
            with pytest.raises(HarnessError, match="sweep aborted"):
                run_sweep(replace(plan, base=crippled))


class TestLockstepSweeps:
    """A sweep solves its base and members in one lockstep loop; each member
    ends bitwise where its own solve at the sweep's dt ends."""

    @pytest.mark.parametrize("plan", [normalized_plan, regularization_plan],
                             ids=["criterion-02", "criterion-08"])
    def test_members_are_their_solves_alone(self, plan):
        plan = plan()
        dt = min(cfl_dt(p, p.initial_field()) for p in plan.problems)
        batch = solve_lockstep(plan.problems, dt_override=dt)
        for member, res in zip(plan.problems, batch, strict=True):
            alone = solve(member, dt_override=dt)
            assert res.stats == alone.stats
            for a, b in zip(res.snapshots, alone.snapshots, strict=True):
                assert a.time == b.time
                np.testing.assert_array_equal(a.values, b.values)


class TestTrackingBoundaryData:
    def test_barenblatt_p_sweep_recovers_linear_rate(self):
        # boundary data tracks the swept exponent (the g_eps - g_0 term);
        # domain keeps clear of the profile's cusp and free boundary
        from plaplab import ExactSolution, SolutionId

        def data_for(p):
            sol = ExactSolution(SolutionId.BARENBLATT, p=p, n=1, A=1.0)
            return (lambda x: sol.eval_radial(np.abs(x), 1.0),
                    lambda x, t: sol.eval_radial(np.abs(x), 1.0 + t))

        grid = GridSpec.line(0.5, 2.0, 65, Boundary.DIRICHLET)
        init_q, diri_q = data_for(3.0)
        base = Problem(spec=OperatorSpec.variational(3.0), grid=grid,
                       initial=init_q, T=0.25, dirichlet=diri_q)
        plan = SweepPlan(
            base=base, axis=PerturbationAxis.P,
            values=tuple(2.0 ** (-k) for k in range(3, 7)),
            gap_times=tuple(np.linspace(0.05, 0.25, 5)),
            data_for_spec=lambda spec: data_for(spec.p),
            theory=family_rate(FamilyCase.VARIATIONAL_DEGENERATE,
                               theta=1.0, p=3.5, q=3.0),
        )
        fit = run_sweep(plan)
        assert not any(fit.excluded)
        assert 0.9 <= fit.slope <= 1.1
        assert compare_theory(fit, margin=0.15).consistent


class TestEstimateHolder:
    def test_sqrt_profile(self):
        grid = GridSpec.line(-1.0, 1.0, 1025, Boundary.DIRICHLET)
        f = ScalarField.from_function(grid, lambda x: np.sqrt(np.abs(x)))
        est = estimate_holder(f)
        assert 0.45 <= est.theta_hat <= 0.55

    def test_sqrt_profile_off_node_singularity(self):
        grid = GridSpec.line(-1.0, 1.0, 1024, Boundary.DIRICHLET)
        f = ScalarField.from_function(grid, lambda x: np.sqrt(np.abs(x)))
        est = estimate_holder(f)
        assert 0.45 <= est.theta_hat <= 0.55

    @pytest.mark.parametrize("n", [256, 1024])
    def test_periodic_fields_stop_below_saturation(self, n):
        # over a whole period the oscillation envelope reaches the field's
        # range and goes flat; fitting that plateau gave 0 (clipped) and 0.88
        grid = GridSpec.line(0.0, 2.0 * math.pi, n, Boundary.PERIODIC)
        rough = ScalarField.from_function(grid, lambda x: np.sqrt(np.abs(np.sin(x))))
        assert 0.45 <= estimate_holder(rough).theta_hat <= 0.55
        assert estimate_holder(ScalarField.from_function(grid, np.sin)).theta_hat >= 0.95

    def test_affine_profile(self):
        grid = GridSpec.line(-1.0, 1.0, 1025, Boundary.DIRICHLET)
        f = ScalarField.from_function(grid, lambda x: 0.7 * x)
        est = estimate_holder(f)
        assert 0.95 <= est.theta_hat <= 1.0
        assert est.L_hat == pytest.approx(0.7, rel=0.05)

    def test_constant_reports_flat(self):
        grid = GridSpec.line(0.0, 1.0, 64, Boundary.PERIODIC)
        f = ScalarField.from_function(grid, lambda x: np.full_like(x, 2.0))
        est = estimate_holder(f)
        assert est.flat

    def test_fewer_than_three_lags_report_flat(self):
        # 16 nodes leave the lags 8 and 9 only: no fit of two points
        grid = GridSpec.line(0.0, 1.0, 16, Boundary.DIRICHLET)
        est = estimate_holder(ScalarField.from_function(grid, lambda x: x))
        assert est.flat and math.isnan(est.theta_hat) and est.L_hat == 0.0

    def test_two_dimensional_field(self):
        grid = GridSpec.box(((0, 1), (0, 1)), (65, 65), Boundary.DIRICHLET)
        f = ScalarField.from_function(grid, lambda x, y: x + 0.5 * y)
        est = estimate_holder(f)
        assert 0.9 <= est.theta_hat <= 1.0

    def test_sqrt_profile_on_4097_nodes(self):
        # every pair at each lag: sampled pairs read 0.51-0.58 over seeds 0-4
        grid = GridSpec.line(-1.0, 1.0, 4097, Boundary.DIRICHLET)
        f = ScalarField.from_function(grid, lambda x: np.sqrt(np.abs(x)))
        assert 0.45 <= estimate_holder(f).theta_hat <= 0.55


def synthetic_fit(slope, nu, attained):
    return RateFit(
        eps_list=(0.1, 0.05), gap_list=(1.0, 0.5), slope=slope, intercept=0.0,
        r_squared=1.0, excluded=(False, False), error_floor=0.0,
        theory_nu=nu, theory_attained=attained,
    )


class TestCompareTheory:
    def test_attained_two_sided(self):
        assert compare_theory(synthetic_fit(0.98, 1.0, True), 0.1).consistent
        assert not compare_theory(synthetic_fit(0.2, 1.0, True), 0.1).consistent
        assert not compare_theory(synthetic_fit(1.3, 1.0, True), 0.1).consistent

    def test_open_one_sided(self):
        assert compare_theory(synthetic_fit(1.3, 0.5, False), 0.1).consistent
        assert compare_theory(synthetic_fit(0.41, 0.5, False), 0.1).consistent
        assert not compare_theory(synthetic_fit(0.35, 0.5, False), 0.1).consistent

    @pytest.mark.parametrize("margin", [math.inf, math.nan, 0.0, -0.1])
    def test_margin_must_be_finite_and_positive(self, margin):
        # an infinite margin called a slope of 5 against nu = 1 consistent,
        # and NaN called every slope inconsistent
        with pytest.raises(ValueError, match="margin must be"):
            compare_theory(synthetic_fit(5.0, 1.0, True), margin)

    def test_missing_theory_rejected(self):
        fit = RateFit(eps_list=(0.1,) * 4, gap_list=(1.0,) * 4, slope=1.0,
                      intercept=0.0, r_squared=1.0, excluded=(False,) * 4,
                      error_floor=0.0)
        with pytest.raises(ValueError):
            compare_theory(fit, 0.1)


class TestEmission:
    def test_csv_and_json(self, tmp_path):
        fit = RateFit(
            eps_list=(0.25, 0.125, 0.0625, 0.03125),
            gap_list=(0.05, 0.025, 0.0125, 0.00625),
            slope=1.0, intercept=-1.609, r_squared=1.0,
            excluded=(False, False, False, True), error_floor=1e-3,
            theory_nu=1.0, theory_attained=True,
        )
        csv_path = tmp_path / "rates.csv"
        write_rate_table(fit, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "eps,gap,excluded"
        assert len(lines) == 5
        assert lines[4].endswith("true")
        json_path = tmp_path / "fit.json"
        write_fit_summary(fit, json_path, consistent=True)
        payload = json.loads(json_path.read_text())
        assert payload["slope"] == 1.0
        assert payload["consistent"] is True
        assert payload["error_floor"] == 1e-3
