import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from plaplab import (
    Boundary,
    BlowUpError,
    BudgetExceededError,
    CflViolationError,
    GridSpec,
    OperatorSpec,
    Problem,
    ScalarField,
    SolverControls,
    cfl_dt,
    solve,
    solve_lockstep,
    step,
    sup_diff,
)
from plaplab import evolve
from plaplab.exact import ExactSolution, SolutionId
from plaplab.grid import Stencil, gradient_arrays, interior_mask
from plaplab.operators import rank_one_coeff_arrays
from tests.test_harness import growing_gradient_plan


def heat_mode_problem(n=256, p=3.0, T=0.5, **controls):
    grid = GridSpec.line(0.0, 2.0 * math.pi, n, Boundary.PERIODIC)
    return Problem(spec=OperatorSpec.normalized(p), grid=grid, initial=np.sin, T=T,
                   controls=SolverControls(**controls))


class TestCfl:
    def test_normalized_p3(self):
        grid = GridSpec.line(0.0, 1.0, 10, Boundary.PERIODIC)  # h = 0.1
        prob = Problem(spec=OperatorSpec.normalized(3.0), grid=grid,
                       initial=np.sin, T=1.0)
        dt = cfl_dt(prob, prob.initial_field())
        assert dt == pytest.approx(0.5 * 0.01 / (2.0 * 2.0), rel=1e-12, abs=0)

    def test_variational_p2(self):
        grid = GridSpec.line(0.0, 1.0, 10, Boundary.PERIODIC)
        prob = Problem(spec=OperatorSpec.variational(2.0), grid=grid,
                       initial=np.sin, T=1.0)
        dt = cfl_dt(prob, prob.initial_field())
        assert dt == pytest.approx(2.5e-3, rel=1e-12, abs=0)

    def test_variational_p4_with_gradient(self):
        # |grad u| = 2 on the interior; Lambda = (p-1)|xi|^{p-2} = 3 * 4 = 12
        grid = GridSpec.line(0.0, 1.0, 11, Boundary.DIRICHLET)
        prob = Problem(spec=OperatorSpec.variational(4.0), grid=grid,
                       initial=lambda x: 2.0 * x, T=1.0,
                       dirichlet=lambda x, t: 2.0 * x)
        dt = cfl_dt(prob, prob.initial_field())
        assert dt == pytest.approx(0.5 * 0.01 / (2.0 * 12.0), rel=1e-12, abs=0)

    def test_degenerate_floor(self):
        # frozen member (p=1, p'=2): Lambda floors at 1 so dt stays finite
        grid = GridSpec.line(0.0, 2.0 * math.pi, 16, Boundary.PERIODIC)
        prob = Problem(spec=OperatorSpec.regularized_pq(1.0, 2.0, 0.0), grid=grid,
                       initial=np.sin, T=1.0)
        dt = cfl_dt(prob, prob.initial_field())
        h = grid.spacing[0]
        assert dt == pytest.approx(0.5 * h * h / 2.0, rel=1e-12, abs=0)


class TestStep:
    def test_constant_field_fixed_point(self):
        grid = GridSpec.line(0.0, 1.0, 16, Boundary.PERIODIC)
        prob = Problem(spec=OperatorSpec.variational(3.0), grid=grid,
                       initial=lambda x: np.full_like(x, 4.0), T=1.0)
        f0 = prob.initial_field()
        f1 = step(f0, prob, cfl_dt(prob, f0))
        np.testing.assert_array_equal(f1.values, f0.values)

    def test_heat_mode_single_step(self):
        prob = heat_mode_problem(n=128)
        f0 = prob.initial_field()
        dt = cfl_dt(prob, f0)
        f1 = step(f0, prob, dt)
        x = prob.grid.axis_coords(0)
        h = prob.grid.spacing[0]
        # u + dt * 2 u_xx with second-difference u_xx = -sin * (2 - 2cos h)/h^2
        want = (1.0 - 2.0 * dt) * np.sin(x)
        assert np.max(np.abs(f1.values - want)) <= 2.0 * dt * h * h / 12.0 * 1.01

    def test_dirichlet_refresh_exact(self):
        grid = GridSpec.line(0.0, 1.0, 11, Boundary.DIRICHLET)
        g = lambda x, t: x + t
        prob = Problem(spec=OperatorSpec.normalized(3.0), grid=grid,
                       initial=lambda x: x, T=1.0, dirichlet=g)
        f0 = prob.initial_field()
        dt = cfl_dt(prob, f0)
        f1 = step(f0, prob, dt)
        assert f1.values[0] == 0.0 + dt
        assert f1.values[-1] == 1.0 + dt

    def test_coefficients_follow_the_actual_gradient(self):
        # variational p = 3 steps u_t = (p-1)|u_x|^{p-2} u_xx at the field's own
        # gradient, however far it is from the initial data's (here zero)
        grid = GridSpec.line(0.0, 1.0, 11, Boundary.DIRICHLET)
        prob = Problem(spec=OperatorSpec.variational(3.0), grid=grid,
                       initial=np.zeros_like, T=1.0,
                       dirichlet=lambda x, t: np.zeros_like(x))
        x, h = grid.axis_coords(0), grid.spacing[0]
        u = 3.0 * x * x * (1.0 - x) + 2.0 * x * x
        ux = (u[2:] - u[:-2]) / (2.0 * h)
        uxx = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
        fld = ScalarField(grid, u)
        dt = cfl_dt(prob, fld)
        assert dt == pytest.approx(h * h / (4.0 * 2.0 * np.max(np.abs(ux))), rel=1e-12, abs=0)
        new = step(fld, prob, dt).values
        np.testing.assert_allclose(new[1:-1], u[1:-1] + dt * 2.0 * np.abs(ux) * uxx,
                                   rtol=0.0, atol=1e-12)
        assert new[0] == new[-1] == 0.0

    def test_cfl_violation_rejected(self):
        prob = heat_mode_problem(n=64)
        f0 = prob.initial_field()
        with pytest.raises(CflViolationError):
            step(f0, prob, 10.0 * cfl_dt(prob, f0))

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_dt_must_be_finite_and_positive(self, dt):
        # nan used to pass every comparison and blow up at t = nan
        prob = heat_mode_problem(n=16, T=0.1)
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            step(prob.initial_field(), prob, dt)

    def test_step_past_horizon_rejected(self):
        prob = heat_mode_problem(n=64, T=0.001)
        f0 = prob.initial_field()
        with pytest.raises(ValueError):
            step(f0, prob, 0.01)

    def test_biased_drift_steady_state(self):
        # u = x solves u_t = u_xx + a sqrt(u_x^2 + eps2^2) + f with
        # f = -a sqrt(1 + eps2^2); a dropped eps2 would move u by 8e-3
        grid = GridSpec.line(0.0, 1.0, 33, Boundary.DIRICHLET)
        a = 1.5
        for spec in (OperatorSpec.biased_infinity(a),
                     OperatorSpec.biased_infinity_regularized(a, 0.1, 0.5)):
            f = -a * math.sqrt(1.0 + spec.eps2 ** 2)
            prob = Problem(
                spec=spec, grid=grid,
                initial=lambda x: x, T=0.05,
                source=lambda x, t: np.full_like(x, f),
                dirichlet=lambda x, t: x,
            )
            res = solve(prob)
            np.testing.assert_allclose(res.snapshots[-1].values,
                                       grid.axis_coords(0), atol=1e-12)

    def test_first_order_term_reads_an_exact_zero_gradient(self):
        # u = r^2/2 has an exactly zero discrete gradient at the centre, a
        # singular node of the 2D biased table, whose r2 is read as 1 for the
        # coefficients; a sqrt(r2) must still read the true 0 there, so the
        # drift a = 1 adds exactly nothing at the centre
        grid = GridSpec.box(((-1.0, 1.0), (-1.0, 1.0)), (17, 17), Boundary.DIRICHLET)

        def data(x, y, t=0.0):
            return 0.5 * (x * x + y * y)

        def prob(a):
            return Problem(spec=OperatorSpec.biased_infinity(a), grid=grid, T=1.0,
                           initial=data, dirichlet=data)

        f0 = prob(0.0).initial_field()
        assert all(g[8, 8] == 0.0 for g in gradient_arrays(f0))
        dt = cfl_dt(prob(0.0), f0)
        drift = step(f0, prob(1.0), dt).values - step(f0, prob(0.0), dt).values
        assert drift[8, 8] == 0.0
        elsewhere = interior_mask(grid)
        elsewhere[8, 8] = False
        assert np.all(drift[elsewhere] > 0.0)

    def test_blow_up_signal_carries_node(self):
        grid = GridSpec.line(0.0, 1.0, 11, Boundary.DIRICHLET)

        def g(x, t):
            return np.where(x > 0.5, np.inf if t > 0 else 1.0, 0.0) + 0.0 * x

        def init(x):
            return np.where(x > 0.5, 1.0, 0.0) + 0.0 * x

        prob = Problem(spec=OperatorSpec.normalized(3.0), grid=grid,
                       initial=init, T=1.0, dirichlet=g)
        f0 = prob.initial_field()
        with pytest.raises(BlowUpError) as err:
            step(f0, prob, cfl_dt(prob, f0))
        assert err.value.node is not None


class TestProblemValidation:
    def test_incompatible_data_rejected(self):
        grid = GridSpec.line(0.0, 1.0, 11, Boundary.DIRICHLET)
        with pytest.raises(ValueError):
            Problem(spec=OperatorSpec.normalized(3.0), grid=grid,
                    initial=lambda x: x, T=1.0, dirichlet=lambda x, t: x + 1.0)

    def test_dirichlet_grid_needs_data(self):
        grid = GridSpec.line(0.0, 1.0, 11, Boundary.DIRICHLET)
        with pytest.raises(ValueError):
            Problem(spec=OperatorSpec.normalized(3.0), grid=grid,
                    initial=lambda x: x, T=1.0)

    def test_snapshot_times_within_horizon(self):
        grid = GridSpec.line(0.0, 1.0, 8, Boundary.PERIODIC)
        with pytest.raises(ValueError):
            Problem(spec=OperatorSpec.normalized(3.0), grid=grid, initial=np.sin,
                    T=1.0, controls=SolverControls(snapshot_times=(2.0,)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_horizon_times_and_floor_rejected(self, bad):
        # an infinite or NaN horizon took no step and returned the t = 0 field
        # as the capture at T; a NaN capture time was labelled with the next
        # one; a NaN eps_num switched the singular-gradient policy off
        grid = GridSpec.line(0.0, 1.0, 8, Boundary.PERIODIC)
        with pytest.raises(ValueError, match="T must be finite"):
            Problem(spec=OperatorSpec.normalized(3.0), grid=grid, initial=np.sin, T=bad)
        with pytest.raises(ValueError, match="snapshot_times must be finite"):
            SolverControls(snapshot_times=(0.0, bad))
        with pytest.raises(ValueError, match="eps_num must be finite"):
            SolverControls(eps_num=bad)

    def test_snapshot_times_must_be_sorted(self):
        with pytest.raises(ValueError, match="snapshot_times must be sorted"):
            SolverControls(snapshot_times=(0.2, 0.1))
        assert SolverControls(snapshot_times=(0.1, 0.1, 0.2)).snapshot_times == (0.1, 0.1, 0.2)

    def test_captures_are_the_requested_times_sorted_without_repeats(self):
        assert heat_mode_problem(T=0.3).captures == (0.3,)
        prob = heat_mode_problem(n=32, T=0.05, snapshot_times=(0.0, 0.02, 0.02, 0.03))
        assert prob.captures == (0.0, 0.02, 0.03)
        # a lockstep solve captures exactly those times, T not among them here
        members = [prob, replace(prob, spec=OperatorSpec.normalized(2.5))]
        for res in solve_lockstep(members):
            assert tuple(snap.time for snap in res.snapshots) == prob.captures
            assert res.stats.final_time == 0.05

    def test_field_on_another_grid_rejected(self):
        prob = heat_mode_problem(n=64)
        other = heat_mode_problem(n=32).initial_field()
        with pytest.raises(ValueError, match="field is not on the problem's grid"):
            cfl_dt(prob, other)
        with pytest.raises(ValueError, match="field is not on the problem's grid"):
            step(other, prob, 1e-6)

    @pytest.mark.parametrize("bad", [0, -5, 2.7, 3.0, True, "5"])
    def test_max_steps_must_be_a_positive_int(self, bad):
        # -5 used to reach the solve and fail as a numerical error, and 2.7
        # compared as a budget of 2.7 steps
        with pytest.raises(ValueError, match="max_steps must be an int >= 1"):
            SolverControls(max_steps=bad)
        assert SolverControls(max_steps=1).max_steps == 1


class TestSolve:
    def test_heat_mode_accuracy_and_snapshots(self):
        prob = heat_mode_problem(n=64, T=0.25,
                                 snapshot_times=(0.0, 0.1, 0.25))
        res = solve(prob)
        assert [s.time for s in res.snapshots] == [0.0, 0.1, 0.25]
        x = prob.grid.axis_coords(0)
        for snap in res.snapshots:
            exact = math.exp(-2.0 * snap.time) * np.sin(x)
            assert np.max(np.abs(snap.values - exact)) < 2e-4

    def test_determinism(self):
        prob = heat_mode_problem(n=64, T=0.1)
        a = solve(prob).snapshots[-1].values
        b = solve(prob).snapshots[-1].values
        np.testing.assert_array_equal(a, b)

    def test_constant_problem_stays_constant(self):
        grid = GridSpec.line(0.0, 1.0, 11, Boundary.DIRICHLET)
        prob = Problem(spec=OperatorSpec.variational(1.5), grid=grid,
                       initial=lambda x: np.full_like(x, 3.0), T=0.05,
                       dirichlet=lambda x, t: np.full_like(x, 3.0))
        res = solve(prob)
        np.testing.assert_array_equal(res.snapshots[-1].values,
                                      np.full(11, 3.0))

    def test_budget_exceeded(self):
        prob = heat_mode_problem(n=64, T=0.5, max_steps=3)
        with pytest.raises(BudgetExceededError):
            solve(prob)

    def test_zero_horizon_returns_initial(self):
        prob = heat_mode_problem(n=64, T=0.0)
        res = solve(prob)
        assert len(res.snapshots) == 1
        assert res.snapshots[0].time == 0.0
        assert res.stats.steps == 0

    def test_consistency_order_three_levels(self):
        errs = []
        for n in (64, 128, 256):
            prob = heat_mode_problem(n=n, T=0.25)
            res = solve(prob)
            x = prob.grid.axis_coords(0)
            exact = math.exp(-0.5) * np.sin(x)
            errs.append(np.max(np.abs(res.snapshots[-1].values - exact)))
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0

    def test_fixed_dt_override_runs_and_checks(self):
        prob = heat_mode_problem(n=64, T=0.05, snapshot_times=(0.02, 0.05))
        dt = cfl_dt(prob, prob.initial_field())
        res = solve(prob, dt_override=dt / 2.0)
        assert res.stats.final_time == pytest.approx(0.05)
        # above the bound the first step raises, as step does
        with pytest.raises(CflViolationError, match="exceeds CFL bound .* at t = 0$"):
            solve(prob, dt_override=dt * 3.0)

    @pytest.mark.parametrize("dt", [0.0, math.nan, -1e-3])
    def test_dt_override_must_be_finite_and_positive(self, dt):
        # rejected before any step: 0 used to step in place until max_steps, nan
        # to blow up at t = nan, and a negative dt to march backwards
        prob = heat_mode_problem(n=16, T=0.1, max_steps=10)
        with pytest.raises(ValueError, match="dt_override"):
            solve(prob, dt_override=dt)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_reused_buffer_matches_step_chain(self, dim, boundary):
        # solve keeps its field in one buffer; each public step copies it into
        # a fresh one, so a ghost left stale after an update (periodic) or a
        # missed edge write (Dirichlet) would make the two differ
        spec = OperatorSpec.biased_infinity_regularized(0.5, 0.1, 0.2)
        if dim == 1:
            grid = GridSpec.line(0.0, 2.0 * math.pi, 17, boundary)
            initial = lambda x: np.sin(x) + 0.3 * np.cos(3.0 * x)  # noqa: E731
            source = lambda x, t: t * np.cos(x)  # noqa: E731
            dirichlet = lambda x, t: initial(x) + t * x  # noqa: E731
        else:
            grid = GridSpec.box(((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)), (12, 13), boundary)
            initial = lambda x, y: np.sin(x) * np.cos(y) + 0.2 * np.sin(2.0 * y)  # noqa: E731
            source = lambda x, y, t: t * np.cos(x + y)  # noqa: E731
            dirichlet = lambda x, y, t: initial(x, y) + t * (x - y)  # noqa: E731
        if boundary is Boundary.PERIODIC:
            dirichlet = None

        def problem(T, times):
            return Problem(spec=spec, grid=grid, initial=initial, T=T, source=source,
                           dirichlet=dirichlet, controls=SolverControls(snapshot_times=times))

        # a power of two below the bound keeps every t + dt exact
        prob = problem(1.0, ())
        dt = 2.0 ** math.floor(math.log2(cfl_dt(prob, prob.initial_field()) / 2.0))
        t1, T = 5 * dt, 12 * dt
        res = solve(problem(T, (t1, T)), dt_override=dt)
        chain = [prob.initial_field()]
        for _ in range(12):
            chain.append(step(chain[-1], prob, dt))
        for snap, want in zip(res.snapshots, (chain[5], chain[12])):
            assert snap.time == want.time
            np.testing.assert_array_equal(snap.values, want.values)
        assert not np.shares_memory(res.snapshots[0].values, res.snapshots[1].values)
        alone = solve(problem(t1, ()), dt_override=dt).snapshots[-1]
        np.testing.assert_array_equal(res.snapshots[0].values, alone.values)

    def test_source_nan_blows_up_at_its_node(self):
        grid = GridSpec.line(0.0, 2.0 * math.pi, 16, Boundary.PERIODIC)

        def source(x, t):
            return np.where((np.arange(x.size) == 5) & (t > 0), np.nan, 0.0)

        prob = Problem(spec=OperatorSpec.normalized(3.0), grid=grid, initial=np.sin,
                       T=1.0, source=source)
        dt = cfl_dt(prob, prob.initial_field()) / 2.0
        with pytest.raises(BlowUpError) as err:
            solve(prob, dt_override=dt)
        # the source is read at the step's old time, so the second step blows up
        assert err.value.node == (5,)
        assert err.value.time == dt + dt

    def test_dirichlet_inf_blows_up_at_its_node(self):
        grid = GridSpec.box(((0.0, 1.0), (0.0, 1.0)), (9, 9), Boundary.DIRICHLET)

        def g(x, y, t):
            return np.where((x == 1.0) & (y == 0.5) & (t > 0), np.inf, 0.0)

        prob = Problem(spec=OperatorSpec.normalized(3.0), grid=grid,
                       initial=lambda x, y: 0.0 * x, T=1.0, dirichlet=g)
        with pytest.raises(BlowUpError) as err:
            solve(prob)
        assert err.value.node == (8, 4)
        assert err.value.time == cfl_dt(prob, prob.initial_field())

    @pytest.mark.parametrize("dim", [1, 2])
    def test_dirichlet_nan_at_an_end_or_corner_blows_up_there(self, dim):
        # the rows of a Dirichlet grid cover neither end of a line nor any
        # corner of a box, so the finiteness check reads the boundary data too
        if dim == 1:
            grid = GridSpec.line(0.0, 1.0, 11, Boundary.DIRICHLET)
            node = (10,)
        else:
            grid = GridSpec.box(((0.0, 1.0), (0.0, 1.0)), (9, 9), Boundary.DIRICHLET)
            node = (8, 8)

        def g(*args):  # the coordinates, then t
            *xs, t = args
            at = np.logical_and.reduce([x == 1.0 for x in xs])
            return np.where(at & (t > 0), np.nan, 0.0)

        prob = Problem(spec=OperatorSpec.normalized(3.0), grid=grid,
                       initial=lambda *xs: 0.0 * xs[0], T=1.0, dirichlet=g)
        with pytest.raises(BlowUpError) as err:
            solve(prob)
        assert err.value.node == node
        assert err.value.time == cfl_dt(prob, prob.initial_field())

    def test_regularization_monotonicity(self):
        # level-set curvature mode p=1, p'=2: gap to the eps=0 member shrinks with eps
        grid = GridSpec.line(0.0, 2.0 * math.pi, 128, Boundary.PERIODIC)

        def run(eps):
            prob = Problem(spec=OperatorSpec.regularized_pq(1.0, 2.0, eps),
                           grid=grid, initial=np.sin, T=0.1)
            return solve(prob).snapshots[-1]

        base = run(0.0)
        gaps = [sup_diff(run(e), base) for e in (0.2, 0.1, 0.05)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0


def _even(x, y):
    # even in x and in y: on [-1, 1]^2 with h = 1/8 the centre node keeps an
    # exactly zero discrete gradient
    return x * x + 0.5 * y * y + 0.3 * np.cos(3.0 * x) * np.cos(2.0 * y)


class TestLockstep:
    """``solve_lockstep`` steps several problems in one loop, each member in its
    own part of one buffer per batch of equal per-solve choices."""

    @staticmethod
    def box_member(p, p_prime, tilt, T=0.02):
        # general_pq(p, p') takes the singular-gradient policy, at floor 0 for
        # p' >= 2 and at r2 <= eps_num^2 below; a tilt != 0 leaves no node with
        # an exactly zero gradient
        grid = GridSpec.box(((-1.0, 1.0), (-1.0, 1.0)), (17, 17), Boundary.DIRICHLET)

        def initial(x, y):
            return _even(x, y) + tilt * (x + 0.7 * y)

        return Problem(spec=OperatorSpec.general_pq(p, p_prime), grid=grid, initial=initial, T=T,
                       source=_box_source, dirichlet=lambda x, y, t: initial(x, y) + t * x * y,
                       controls=SolverControls(snapshot_times=(0.01, T)))

    @pytest.mark.parametrize("p_prime", [3.0, 1.5])
    def test_singular_node_stays_in_its_member(self, p_prime):
        # one batch (equal choices, p a per-member array) in which only the
        # middle member has a node with an exactly zero gradient, which takes
        # the eps_num form (at p' = 1.5, with its own p, as do the nodes of
        # every member whose r2 is within the floor); at a dt below every
        # member's bound at every step (a dt above one would raise) each member
        # equals its solve alone, so no singular node reaches another member
        problems = [self.box_member(2.5, p_prime, 0.1), self.box_member(3.0, p_prime, 0.0),
                    self.box_member(3.5, p_prime, 0.2)]
        assert len({evolve._choices(p) for p in problems}) == 1
        for p, zeros in zip(problems, (0, 1, 0)):
            gx, gy = gradient_arrays(p.initial_field())
            inner = interior_mask(p.grid)
            assert np.count_nonzero((gx == 0.0) & (gy == 0.0) & inner) == zeros
        dt = 0.5 * min(cfl_dt(p, p.initial_field()) for p in problems)
        batch = solve_lockstep(problems, dt_override=dt)
        alone = [solve(p, dt_override=dt) for p in problems]
        gx, gy = gradient_arrays(batch[1].snapshots[-1])
        assert gx[8, 8] == 0.0 and gy[8, 8] == 0.0  # still singular at the end
        for res, want in zip(batch, alone, strict=True):
            assert res.stats == want.stats
            for a, b in zip(res.snapshots, want.snapshots, strict=True):
                assert a.time == b.time
                np.testing.assert_array_equal(a.values, b.values)

    def test_nan_boundary_datum_blows_up_in_its_member(self):
        # the members' boundary data differ; the third problem's NaN at x = 1
        # raises at its node, named by the problem's place in the call (it
        # shares a batch with the first, the second steps in a batch of its own)
        grid = GridSpec.line(0.0, 1.0, 16, Boundary.DIRICHLET)

        def member(spec, bad):
            def g(x, t):
                return np.where(bad & (x == 1.0) & (t > 0), np.nan, x * x + t * x)

            return Problem(spec=spec, grid=grid, initial=lambda x: x * x, T=1.0, dirichlet=g)

        problems = [member(OperatorSpec.normalized(3.0), False),
                    member(OperatorSpec.variational(3.0), False),
                    member(OperatorSpec.normalized(2.5), True)]
        assert len({evolve._choices(p) for p in problems}) == 2
        dt = 0.5 * min(cfl_dt(p, p.initial_field()) for p in problems)
        with pytest.raises(BlowUpError, match="of problem 2") as err:
            solve_lockstep(problems, dt_override=dt)
        assert (err.value.member, err.value.node, err.value.time) == (2, (15,), dt)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_members_keep_their_first_order_term(self, dim):
        # one batch whose members differ in eps1 and in the eps2 of their
        # first-order term a sqrt(|Du|^2 + eps2^2); below every member's bound
        # each ends bitwise where its own solve ends, so none reads another's
        if dim == 1:
            grid = GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)
            initial, dirichlet = np.sin, None
        else:
            grid = GridSpec.box(((-1.0, 1.0), (-1.0, 1.0)), (17, 17), Boundary.DIRICHLET)

            def initial(x, y):
                return _even(x, y) + 0.1 * (x + 0.7 * y)

            def dirichlet(x, y, t):
                return initial(x, y) + t * x * y

        problems = [Problem(spec=OperatorSpec.biased_infinity_regularized(1.0, v, v), grid=grid,
                            initial=initial, T=0.05, dirichlet=dirichlet)
                    for v in (0.4, 0.2, 0.1, 0.05)]
        assert len({evolve._choices(p) for p in problems}) == 1
        dt = 0.5 * min(cfl_dt(p, p.initial_field()) for p in problems)
        batch = solve_lockstep(problems, dt_override=dt)
        for member, res in zip(problems, batch, strict=True):
            alone = solve(member, dt_override=dt)
            assert res.stats == alone.stats
            for a, b in zip(res.snapshots, alone.snapshots, strict=True):
                assert a.time == b.time
                np.testing.assert_array_equal(a.values, b.values)

    @staticmethod
    def lifted_members(case):
        """Two members of one batch (normalized(3) and (2.5)) that a source
        lifts above their data ranges: from one range, from two (the second
        lies outside the first's at every step), or from one range on a
        Dirichlet grid whose second member's boundary data rise, so that its
        range widens beyond the first's."""
        if case == "widening":
            grid = GridSpec.line(0.0, math.pi, 33, Boundary.DIRICHLET)
            data = [lambda x, t: 0.0 * x, lambda x, t: 20.0 * t + 0.0 * x]
            return [Problem(spec=OperatorSpec.normalized(p), grid=grid, T=0.1, initial=np.sin,
                            source=_lift, dirichlet=g) for p, g in zip((3.0, 2.5), data)]
        grid = GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)
        scales = (1.0, 3.0) if case == "two-ranges" else (1.0, 1.0)
        return [Problem(spec=OperatorSpec.normalized(p), grid=grid, T=0.1, source=_lift,
                        initial=lambda x, k=k: k * np.sin(x)) for p, k in zip((3.0, 2.5), scales)]

    @pytest.mark.parametrize("case", ["one-range", "two-ranges", "widening"])
    def test_each_member_keeps_its_own_range_check(self, case):
        # a batch whose members start from one range checks the whole buffer
        # against every member's range at once first, and each member alone
        # where that fails; either way each member's overshoot is bitwise that
        # of its own solve
        problems = self.lifted_members(case)
        assert len({evolve._choices(p) for p in problems}) == 1
        dt = 0.5 * min(cfl_dt(p, p.initial_field()) for p in problems)
        batch = solve_lockstep(problems, dt_override=dt)
        overshoots = [res.stats.overshoot for res in batch]
        assert min(overshoots) > 0.0 and overshoots[0] != overshoots[1]
        for member, res in zip(problems, batch, strict=True):
            alone = solve(member, dt_override=dt)
            assert res.stats == alone.stats
            np.testing.assert_array_equal(res.snapshots[-1].values, alone.snapshots[-1].values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("size", [1, 2])
    def test_non_finite_value_blows_up_in_its_member(self, size, bad):
        # a non-finite value in the last member of a batch whose members start
        # from one range raises at its node, naming that member and the time
        prob = heat_mode_problem(n=32)
        data = prob.initial_field().values
        u, rate, update, *_ = evolve._kernel([prob] * size, [data] * size, [4, 7][-size:])
        dt = rate(0.0)
        u[-1][9] = bad
        with pytest.raises(BlowUpError) as err:
            update(dt, dt)
        assert (err.value.member, err.value.node, err.value.time) == (7, (9,), dt)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    @pytest.mark.parametrize("size", [1, 2])
    def test_infinite_dirichlet_datum_blows_up_in_its_member(self, size, bad):
        # an infinite datum widens its member's data range to infinity, yet
        # still fails the finiteness check, also where every member starts
        # from one range
        grid = GridSpec.box(((0.0, 1.0), (0.0, 1.0)), (9, 9), Boundary.DIRICHLET)

        def g(x, y, t):
            return np.where((x == 1.0) & (y == 0.5) & (t > 0), bad, 0.0)

        problems = [Problem(spec=OperatorSpec.normalized(p), grid=grid,
                            initial=lambda x, y: 0.0 * x, T=1.0,
                            dirichlet=(lambda x, y, t: 0.0 * x) if p == 3.0 else g)
                    for p in (3.0, 2.5)[-size:]]
        dt = min(cfl_dt(p, p.initial_field()) for p in problems)
        with pytest.raises(BlowUpError) as err:
            solve_lockstep(problems) if size == 2 else solve(problems[0])
        want = (size - 1 if size == 2 else None, (8, 4), dt)
        assert (err.value.member, err.value.node, err.value.time) == want

    def test_dt_override_above_a_later_bound_raises(self):
        # the growing-gradient sweep's Lambda grows with its gradient: a
        # dt_override at the smallest t = 0 bound of its problems exceeds the
        # smallest bound of a later step, and the call raises there
        plan = growing_gradient_plan()
        dt = min(cfl_dt(p, p.initial_field()) for p in plan.problems)
        want = r"^dt = 6\.299e-05 exceeds CFL bound 6\.290e-05 at t = 0\.00995213$"
        with pytest.raises(CflViolationError, match=want):
            solve_lockstep(plan.problems, dt_override=dt)

    @pytest.mark.parametrize("change", ["grid", "T", "captures", "source", "controls"])
    def test_problems_must_share_the_loop(self, change):
        # rejected before any step: no source is evaluated
        calls = []

        def source(x, t):
            calls.append(t)
            return 0.0 * x

        first = replace(heat_mode_problem(n=32, T=0.1), source=source)
        other = {
            "grid": replace(first, grid=GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)),
            "T": replace(first, T=0.2),
            "captures": replace(first, controls=SolverControls(snapshot_times=(0.05,))),
            "source": replace(first, source=lambda x, t: source(x, t)),
            "controls": replace(first, controls=SolverControls(eps_num=0.01)),
        }[change]
        with pytest.raises(ValueError, match="must share"):
            solve_lockstep([first, other])
        assert not calls
        with pytest.raises(ValueError, match="at least one"):
            solve_lockstep([])


def _lift(x, t):  # above the diffusion's fall at the crests of sin x and 3 sin x
    return 10.0 + np.cos(x)


def _box_source(x, y, t):
    return 0.5 * np.cos(x) * np.cos(y) * (1.0 + t)


class TestMaxPrinciple:
    def test_randomized_1d_problems(self):
        rng = np.random.default_rng(42)
        specs = [
            OperatorSpec.normalized(1.5), OperatorSpec.normalized(4.0),
            OperatorSpec.variational(1.3), OperatorSpec.variational(3.5),
            OperatorSpec.general_pq(2.5, 1.5), OperatorSpec.general_pq(1.5, 3.0),
            OperatorSpec.regularized_pq(1.0, 2.0, 0.1),
            OperatorSpec.regularized_pq(3.0, 4.0, 0.0),
            OperatorSpec.biased_infinity(0.0),
            OperatorSpec.biased_infinity_regularized(0.0, 0.05, 0.0),
        ]
        grid = GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)
        for i in range(20):
            spec = specs[i % len(specs)]
            coefs = rng.normal(size=3) / (1.0 + np.arange(3.0))

            def init(x, c=coefs):
                return sum(ck * np.sin((k + 1) * x + k) for k, ck in enumerate(c))

            prob = Problem(spec=spec, grid=grid, initial=init, T=0.02)
            res = solve(prob)
            lo, hi = float(np.min(res.snapshots[0].values if res.snapshots else 0)), 0.0
            f0 = prob.initial_field()
            lo, hi = float(np.min(f0.values)), float(np.max(f0.values))
            final = res.snapshots[-1]
            assert np.min(final.values) >= lo - 1e-12
            assert np.max(final.values) <= hi + 1e-12
            assert res.stats.overshoot <= 1e-12


class TestSingularPolicy:
    def test_grad_floor_engages_regularized_form(self):
        # clipped data has flat plateaus: 38 of 64 nodes have an exactly zero
        # discrete gradient and take the regularized coefficients at t = 0;
        # the run stays monotone and converges to something finite
        grid = GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)
        prob = Problem(spec=OperatorSpec.variational(3.0), grid=grid,
                       initial=lambda x: np.clip(np.sin(x), -0.5, 0.5), T=0.02)
        f0 = prob.initial_field()
        assert np.count_nonzero(gradient_arrays(f0)[0] == 0.0) == 38
        res = solve(prob)
        assert res.stats.overshoot <= 1e-12
        assert np.min(res.snapshots[-1].values) >= np.min(f0.values) - 1e-12
        assert np.max(res.snapshots[-1].values) <= np.max(f0.values) + 1e-12

    def test_zero_eps_num_rejected_when_policy_engages(self):
        grid = GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)
        prob = Problem(spec=OperatorSpec.variational(3.0), grid=grid,
                       initial=np.sin, T=0.01,
                       controls=SolverControls(eps_num=0.0))
        # sin has exact-zero discrete gradients at the crest nodes
        with pytest.raises(ValueError):
            solve(prob)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_eps_num_takes_no_decision_at_the_boundary(self, dim):
        # (x - h/2)^2 (+ (y - h/2)^2) on a Dirichlet grid from 0: no interior
        # node has a zero gradient, but the edge node at 0 and its neighbour
        # hold equal values, so a gradient read from ghost copies of the edge
        # was 0 at the end node of the line and at the corner of the box, and
        # eps_num = 0 raised there. The boundary carries data and takes no
        # singular-gradient decision, so eps_num plays no part at all.
        if dim == 1:
            grid = GridSpec.line(0.0, 1.0, 33, Boundary.DIRICHLET)
        else:
            grid = GridSpec.box(((0.0, 1.0), (0.0, 1.0)), (17, 17), Boundary.DIRICHLET)
        h = grid.spacing[0]

        def data(*args):  # the coordinates, then t
            return sum((x - 0.5 * h) ** 2 for x in args[:dim])

        def prob(eps_num):
            return Problem(spec=OperatorSpec.variational(3.0), grid=grid, T=0.01,
                           initial=data, dirichlet=data,
                           controls=SolverControls(eps_num=eps_num))

        f0 = prob(0.0).initial_field()
        r2 = sum(g * g for g in gradient_arrays(f0))
        assert np.all(r2[interior_mask(grid)] > 0.0)
        res = solve(prob(0.0))
        assert res.stats.steps > 0
        np.testing.assert_array_equal(res.snapshots[-1].values,
                                      solve(prob(None)).snapshots[-1].values)

    def test_zero_gradient_at_a_ghost_column_is_not_singular(self):
        # Data constant along the first axis: in the stencil's row layout every
        # ghost column inside the rows sees equal neighbours in both axes, so
        # r2 = 0 there, while every node has a nonzero difference along the
        # second axis. With eps_num = 0 and growth exponent 1.5, a ghost taken
        # for a node would raise, and r2 ** -0.25 at a ghost would warn.
        grid = GridSpec.box(((0.0, 2 * math.pi), (0.0, 2 * math.pi)), (16, 12), Boundary.PERIODIC)
        prob = Problem(spec=OperatorSpec.variational(1.5), grid=grid, T=0.05,
                       initial=lambda x, y: np.sin(y + 0.3) + 0.0 * x,
                       controls=SolverControls(eps_num=0.0))
        stencil = Stencil(grid, prob.initial_field().values)
        gx, gy = stencil.gradient()
        r2 = gx * gx + gy * gy
        assert np.all(stencil.nodes(r2) > 0.0)
        assert np.any(r2 == 0.0)  # so at a ghost column
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            res = solve(prob)
        # pinned at 1e-12 relative to the scheme before the row-layout kernel
        assert res.stats.steps == 6
        assert res.stats.min_dt == pytest.approx(0.006403814171871469, rel=1e-12, abs=0)
        golden = [0.2878383338031408, 0.9252203652661024, -0.2160422025150362]
        assert res.snapshots[-1].values[[0, 5, 15], [0, 2, 11]] == pytest.approx(golden, rel=1e-12, abs=0)


# 1D members singular at xi = 0 with growth exponent 2: (kappa = s + c, and
# Lambda0 = s + max(c, 0)), the same at every nonzero gradient
CONSTANT_1D = {
    "normalized(3)": (OperatorSpec.normalized(3.0), 2.0, 2.0),
    "normalized(1.5)": (OperatorSpec.normalized(1.5), 0.5, 1.0),
    "general_pq(3,2)": (OperatorSpec.general_pq(3.0, 2.0), 2.0, 2.0),
    "variational(2)": (OperatorSpec.variational(2.0), 1.0, 1.0),
    "regularized_pq(1,2,0)": (OperatorSpec.regularized_pq(1.0, 2.0, 0.0), 0.0, 1.0),
    "biased_infinity(0)": (OperatorSpec.biased_infinity(0.0), 1.0, 1.0),
    "biased_infinity(0.5)": (OperatorSpec.biased_infinity(0.5), 1.0, 1.0),
    "biased_infinity_regularized(0.5,0,0.1)":
        (OperatorSpec.biased_infinity_regularized(0.5, 0.0, 0.1), 1.0, 1.0),
}


def _flat_top(x):
    # exact zero gradients on the flat top and at a local maximum
    return np.minimum(np.cos(x) + 0.3 * np.cos(2.0 * x), 0.9)


def constant_problem(spec, boundary, eps_num=None):
    """64 periodic nodes, or 33 Dirichlet nodes with a source and moving
    boundary data."""
    controls = SolverControls(eps_num=eps_num)
    if boundary is Boundary.PERIODIC:
        grid = GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)
        return Problem(spec=spec, grid=grid, initial=_flat_top, T=0.1, controls=controls)
    grid = GridSpec.line(-2.0, 2.0, 33, Boundary.DIRICHLET)
    return Problem(spec=spec, grid=grid, initial=_flat_top, T=0.1, controls=controls,
                   source=lambda x, t: np.sin(2.0 * x) * (1.0 + t),
                   dirichlet=lambda x, t: _flat_top(x) + t * x)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.DIRICHLET])
@pytest.mark.parametrize("name", list(CONSTANT_1D))
class TestConstantCoefficient1D:
    def test_step_is_the_scalar_update(self, name, boundary):
        spec, kappa, _ = CONSTANT_1D[name]
        prob = constant_problem(spec, boundary)
        f0 = prob.initial_field()
        dt = cfl_dt(prob, f0)
        got = step(f0, prob, dt).values
        # u + dt / h^2 (kappa h^2 D2u + a h^2 sqrt(Du^2 + eps2^2) + h^2 f), in
        # the kernel's order
        u, h = f0.values, prob.grid.spacing[0]
        h2 = h * h
        mode = "wrap" if boundary is Boundary.PERIODIC else "edge"
        padded = np.pad(u, 1, mode=mode)
        up, um = padded[2:], padded[:-2]
        rhs = np.subtract(np.add(up, um), np.multiply(u, 2.0)) * kappa
        first = np.zeros_like(u)
        if spec.a != 0.0:
            du = np.subtract(up, um) * (1.0 / (2.0 * h))
            first = np.sqrt(du * du + spec.eps2 * spec.eps2) * (spec.a * h2)
        x = prob.grid.axis_coords(0)
        if prob.source is not None:
            first = first + prob.source(x, 0.0) * h2
        want = u + (rhs + first) * (dt / h2)
        if boundary is Boundary.DIRICHLET:
            want[[0, -1]] = prob.dirichlet(x[[0, -1]], dt)
        np.testing.assert_array_equal(got, want)

    def test_cfl_dt_is_fixed_by_the_constant(self, name, boundary):
        spec, _, lam0 = CONSTANT_1D[name]
        prob = constant_problem(spec, boundary)
        h = prob.grid.spacing[0]
        want = h * h / (4.0 * max(lam0, 1.0))
        assert cfl_dt(prob, prob.initial_field()) == want
        # whatever the field: the constant does not depend on the gradient
        assert cfl_dt(prob, ScalarField(prob.grid, 5.0 * prob.initial_field().values)) == want

    def test_zero_eps_num_accepted(self, name, boundary):
        # the flat top has exact zero gradients, yet no node is regularized
        spec = CONSTANT_1D[name][0]
        res = solve(constant_problem(spec, boundary, eps_num=0.0))
        ref = solve(constant_problem(spec, boundary))
        assert res.stats == ref.stats
        np.testing.assert_array_equal(res.snapshots[-1].values, ref.snapshots[-1].values)


# 2D members singular at xi = 0 with growth exponent 2: (s0, c0) = (1, p - 2)
# at every node, the singular ones included
CONSTANT_2D = {
    "normalized(3)": (OperatorSpec.normalized(3.0), 1.0, 1.0),
    "normalized(1.5)": (OperatorSpec.normalized(1.5), 1.0, -0.5),
    "general_pq(3,2)": (OperatorSpec.general_pq(3.0, 2.0), 1.0, 1.0),
    "variational(2)": (OperatorSpec.variational(2.0), 1.0, 0.0),
    "regularized_pq(1,2,0)": (OperatorSpec.regularized_pq(1.0, 2.0, 0.0), 1.0, -1.0),
}


def _saddle(x, y):
    # an exact zero gradient at the centre node (0, 0)
    return x * x + 0.5 * y * y + 0.3 * np.sin(3.0 * x) * y


def constant_problem_2d(spec, boundary, eps_num=None):
    """16 x 12 periodic nodes with flat tops, or 17 x 13 Dirichlet nodes with a
    source and moving boundary data; both have exactly zero gradients."""
    controls = SolverControls(eps_num=eps_num)
    if boundary is Boundary.PERIODIC:
        grid = GridSpec.box(((0.0, 2 * math.pi), (0.0, 2 * math.pi)), (16, 12), boundary)
        return Problem(spec=spec, grid=grid, T=0.1, controls=controls,
                       initial=lambda x, y: np.minimum(np.cos(x) * np.cos(y), 0.5))
    grid = GridSpec.box(((-1.0, 1.0), (-1.5, 1.5)), (17, 13), boundary)
    return Problem(spec=spec, grid=grid, initial=_saddle, T=0.1, controls=controls,
                   source=lambda x, y, t: 0.5 * np.cos(x + y) * (1.0 + t),
                   dirichlet=lambda x, y, t: _saddle(x, y) + t * (x - y))


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.DIRICHLET])
@pytest.mark.parametrize("name", list(CONSTANT_2D))
class TestConstantCoefficient2D:
    def test_step_is_the_constant_coefficient_update(self, name, boundary):
        spec, s0, c0 = CONSTANT_2D[name]
        prob = constant_problem_2d(spec, boundary)
        f0 = prob.initial_field()
        u = f0.values
        assert np.count_nonzero(sum(g * g for g in gradient_arrays(f0)) == 0.0) > 0
        dt = cfl_dt(prob, f0)
        got = step(f0, prob, dt).values
        # u + dt / h^2 (s0 tr H + c0 (ux^2 Hxx + uy^2 Hyy + ux uy 2Hxy) / r2 + h^2 f),
        # with H = h^2 D2u, h the smaller spacing, and r2 = 0 read as 1, in the
        # kernel's order
        hx, hy = prob.grid.spacing
        h = min(hx, hy)
        mode = "wrap" if boundary is Boundary.PERIODIC else "edge"
        padded = np.pad(u, 1, mode=mode)
        gx = (padded[2:] - padded[:-2]) * (1.0 / (2.0 * hx))  # on every padded column
        ux, uy = gx[:, 1:-1], (padded[1:-1, 2:] - padded[1:-1, :-2]) * (1.0 / (2.0 * hy))
        twice = u * 2.0
        uxx = (padded[2:, 1:-1] + padded[:-2, 1:-1]) - twice
        uyy = (padded[1:-1, 2:] + padded[1:-1, :-2]) - twice
        if hx != h:
            uxx = uxx * ((h / hx) * (h / hx))
        if hy != h:
            uyy = uyy * ((h / hy) * (h / hy))
        uxy2 = (gx[:, 2:] - gx[:, :-2]) * (h * h / hy)
        r2 = ux * ux + uy * uy
        form = (uxx * ux * ux + uyy * uy * uy) + uxy2 * ux * uy
        rate = (uxx + uyy) * s0 + form / np.where(r2 == 0.0, 1.0, r2) * c0
        if prob.source is not None:
            rate = rate + prob.source(*prob.grid.meshes(), 0.0) * (h * h)
        want = u + rate * (dt / (h * h))
        if boundary is Boundary.DIRICHLET:
            inner = interior_mask(prob.grid)
            want[~inner] = prob.dirichlet(*(m[~inner] for m in prob.grid.meshes()), dt)
        np.testing.assert_array_equal(got, want)

    def test_cfl_dt_is_fixed_by_the_constants(self, name, boundary):
        spec, s0, c0 = CONSTANT_2D[name]
        prob = constant_problem_2d(spec, boundary)
        h = min(prob.grid.spacing)
        want = 0.5 * h * h / 4.0 / max(s0 + max(c0, 0.0), 1.0)
        f0 = prob.initial_field()
        assert cfl_dt(prob, f0) == want
        # whatever the field, a constant one with no nonzero gradient included
        assert cfl_dt(prob, ScalarField(prob.grid, 5.0 * f0.values)) == want
        assert cfl_dt(prob, ScalarField(prob.grid, np.zeros(prob.grid.shape))) == want

    def test_zero_eps_num_accepted(self, name, boundary):
        # the data have exact zero gradients, yet no node is regularized
        spec = CONSTANT_2D[name][0]
        res = solve(constant_problem_2d(spec, boundary, eps_num=0.0))
        ref = solve(constant_problem_2d(spec, boundary))
        assert res.stats == ref.stats
        np.testing.assert_array_equal(res.snapshots[-1].values, ref.snapshots[-1].values)


TABLE_MEMBERS = [
    (OperatorSpec.regularized_pq(1.0, 2.0, 0.1), 1),
    (OperatorSpec.biased_infinity_regularized(0.5, 0.1, 0.1), 1),
    (OperatorSpec.variational(3.0), 1),
    (OperatorSpec.general_pq(3.0, 1.5), 1),
    (OperatorSpec.biased_infinity(0.5), 2),  # singular nodes take s = eps_num in 2D
    (OperatorSpec.regularized_pq(1.5, 2.0, 0.1), 2),  # a fixed Lambda
]
# kappa = s0 + c0 = 0: no diffusion, and no first-order term of the operator
ZERO_KAPPA = [OperatorSpec.normalized(1.0), OperatorSpec.regularized_pq(1.0, 2.0, 0.0)]
# members stepped without a table: kappa = 0 in 1D, and the 2D constant members
NO_TABLE = [(spec, 1) for spec in ZERO_KAPPA] + [(spec, 2) for spec, _, _ in CONSTANT_2D.values()]


def small_problem(spec, dim, T=0.1):
    """16 periodic nodes of sin x, or 16 x 12 of sin x cos y."""
    if dim == 1:
        grid = GridSpec.line(0.0, 2.0 * math.pi, 16, Boundary.PERIODIC)
        return Problem(spec=spec, grid=grid, initial=np.sin, T=T)
    grid = GridSpec.box(((0.0, 2 * math.pi), (0.0, 2 * math.pi)), (16, 12), Boundary.PERIODIC)
    return Problem(spec=spec, grid=grid, initial=lambda x, y: np.sin(x) * np.cos(y), T=T)


@pytest.mark.parametrize("spec, dim", TABLE_MEMBERS)
def test_non_constant_members_keep_the_coefficient_table(monkeypatch, spec, dim):
    # (s, c) as the kernel takes them, through the name bound in evolve; a call
    # with eps evaluates the singular-gradient nodes, not the table
    taken, original = [], evolve.rank_one_coeff_arrays

    def record(*args, **kwargs):
        got = original(*args, **kwargs)
        if "eps" not in kwargs:
            taken.append(got)
        return got

    monkeypatch.setattr(evolve, "rank_one_coeff_arrays", record)
    prob = small_problem(spec, dim)
    cfl_dt(prob, prob.initial_field())
    assert len(taken) == 1  # a table, not one constant
    s, c = taken[0]
    rows = Stencil(prob.grid, prob.initial_field().values).rows
    assert c.shape == rows.shape
    # the everywhere-defined members with growth exponent 2 have one s at every node
    if spec.everywhere_defined and spec.growth_exponent == 2.0:
        assert type(s) is float
    else:
        assert s.shape == rows.shape


@pytest.mark.parametrize("spec, dim", TABLE_MEMBERS + NO_TABLE)
def test_coefficient_table_is_taken_once_per_step(monkeypatch, spec, dim):
    # the benchmark's coefficient layer wraps the name bound in evolve: a kernel
    # that stopped calling it would read 0 there instead of failing (a call
    # with eps evaluates the singular-gradient nodes, not the table)
    calls = []
    original = evolve.rank_one_coeff_arrays

    def record(*args, **kwargs):
        if "eps" not in kwargs:
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(evolve, "rank_one_coeff_arrays", record)
    res = solve(small_problem(spec, dim, T=0.05))
    assert res.stats.steps > 0
    assert len(calls) == (0 if (spec, dim) in NO_TABLE else res.stats.steps)


@pytest.mark.parametrize("dim", [1, 2])
def test_fixed_lambda_where_c_is_never_positive(dim):
    # at growth exponent 2 with c0 <= 0, s = 1 and c <= 0 at every gradient, so
    # Lambda = 1 at every step, as for the heat equation; over T = 2 dt0 that is
    # two whole steps
    heat = small_problem(OperatorSpec.normalized(2.0), dim)
    dt0 = cfl_dt(heat, heat.initial_field())
    want = solve(small_problem(OperatorSpec.normalized(2.0), dim, T=2.0 * dt0)).stats
    assert (want.steps, want.min_dt) == (2, dt0)
    fixed = [OperatorSpec.regularized_pq(p, 2.0, 0.1) for p in (1.0, 1.5, 2.0)] + [
        OperatorSpec.normalized(1.5), OperatorSpec.general_pq(1.5, 2.0),
        OperatorSpec.regularized_pq(1.5, 2.0, 0.0), OperatorSpec.variational(2.0)]
    for spec in fixed:
        got = solve(small_problem(spec, dim, T=2.0 * dt0))
        assert (got.stats.steps, got.stats.min_dt) == (want.steps, want.min_dt)
    # c > 0 where the gradient is not 0: the bound follows the gradient
    for spec in (OperatorSpec.regularized_pq(3.0, 2.0, 0.1),
                 OperatorSpec.biased_infinity_regularized(0.0, 0.1, 0.0)):
        assert solve(small_problem(spec, dim, T=2.0 * dt0)).stats.min_dt < dt0


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("spec", [OperatorSpec.regularized_pq(3.0, 2.0, 0.1),
                                  OperatorSpec.biased_infinity_regularized(0.5, 0.1, 0.1)],
                         ids=["regularized_pq(3,2,0.1)", "biased_infinity_regularized(0.5,0.1,0.1)"])
def test_scalar_s_members_take_the_per_step_maximum(spec, dim):
    # s is one float and c > 0 off zero gradients: the bound is the maximum of
    # s + max(c, 0) over the CFL nodes, exactly as a hand computation takes it
    if dim == 1:
        grid = GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)
        prob = Problem(spec=spec, grid=grid, initial=lambda x: np.sin(x) + 0.5 * np.cos(3 * x),
                       T=0.1)
        inner = slice(None)
    else:
        grid = GridSpec.box(((0.0, 0.25), (-1.0, 1.0)), (25, 21), Boundary.DIRICHLET)

        def init(x, y):  # steepest on the boundary rows y = +-1, which carry no update
            return x * (1.0 + y * y)

        prob = Problem(spec=spec, grid=grid, initial=init, T=0.1,
                       dirichlet=lambda x, y, t: init(x, y))
        inner = (slice(1, -1),) * 2
    f0 = prob.initial_field()
    r2 = sum(g * g for g in gradient_arrays(f0))
    s, c = rank_one_coeff_arrays(spec, r2)
    lam = float(np.max(np.add(s, np.maximum(c, 0.0))[inner]))
    assert lam > 1.0  # so the floor at 1 does not decide the bound
    h = min(grid.spacing)
    assert cfl_dt(prob, f0) == 0.5 * h * h / (2.0 * grid.dim) / max(lam, 1.0)


@pytest.mark.parametrize("spec", ZERO_KAPPA, ids=["normalized(1)", "regularized_pq(1,2,0)"])
class TestZeroKappa1D:
    def test_periodic_data_never_moves(self, spec):
        grid = GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)
        controls = SolverControls(snapshot_times=(0.0, 0.03, 0.1))
        res = solve(Problem(spec=spec, grid=grid, initial=_flat_top, T=0.1, controls=controls))
        heat = solve(Problem(spec=OperatorSpec.normalized(2.0), grid=grid, initial=_flat_top,
                             T=0.1, controls=controls))
        data = _flat_top(grid.axis_coords(0))
        for snap in res.snapshots:
            assert snap.values.tobytes() == data.tobytes()
        # Lambda0 = 1 for both, so both step at h^2 / 4
        assert (res.stats.steps, res.stats.min_dt) == (heat.stats.steps, heat.stats.min_dt)
        assert res.stats.overshoot == 0.0

    def test_dirichlet_data_without_a_source_is_all_that_moves(self, spec):
        # no term to add: each step writes the boundary data at its t + dt,
        # and the interior never moves
        prob = replace(constant_problem(spec, Boundary.DIRICHLET), source=None)
        x = prob.grid.axis_coords(0)
        edge, data = x[[0, -1]], _flat_top(x)
        fld = prob.initial_field()
        for _ in range(3):
            fld = step(fld, prob, cfl_dt(prob, fld))
            assert fld.values[[0, -1]].tobytes() == prob.dirichlet(edge, fld.time).tobytes()
            assert fld.values[1:-1].tobytes() == data[1:-1].tobytes()
        res = solve(prob)
        assert res.snapshots[-1].values[1:-1].tobytes() == data[1:-1].tobytes()
        assert res.snapshots[-1].values[[0, -1]].tobytes() == prob.dirichlet(edge, 0.1).tobytes()
        assert res.stats.overshoot == 0.0

    def test_periodic_step_and_cfl_dt_without_an_update(self, spec):
        # with no source on a periodic grid the kernel has no update, and
        # solve_lockstep calls neither of its stages; step and cfl_dt still
        # take it: the step keeps the field and moves the time, F_h reads 0
        prob = constant_problem(spec, Boundary.PERIODIC)
        f0 = prob.initial_field()
        h = prob.grid.spacing[0]
        dt = cfl_dt(prob, f0)
        assert dt == h * h / 4.0
        f1 = step(f0, prob, dt)
        assert f1.time == dt and f1.values.tobytes() == f0.values.tobytes()
        _, rate, update, fh, *_ = evolve._kernel([prob], f0.values[None])
        assert update is None and rate(0.0) == dt and not fh.any()

    def test_dirichlet_source_is_the_only_term(self, spec):
        self.assert_source_is_the_only_term(constant_problem(spec, Boundary.DIRICHLET))

    def test_periodic_source_is_the_only_term(self, spec):
        prob = replace(constant_problem(spec, Boundary.PERIODIC),
                       source=lambda x, t: np.sin(2.0 * x) * (1.0 + t))
        self.assert_source_is_the_only_term(prob)

    @staticmethod
    def assert_source_is_the_only_term(prob):
        res = solve(prob)
        # u += (h^2 f) (dt / h^2) on every node, then the boundary data at t + dt,
        # in the kernel's order
        x, h = prob.grid.axis_coords(0), prob.grid.spacing[0]
        u, t, steps, dt_max = _flat_top(x), 0.0, 0, h * h / 4.0
        while t < prob.T - 1e-12:
            dt, t_new = dt_max, t + dt_max
            if dt >= prob.T - t - 1e-12:
                dt, t_new = prob.T - t, prob.T
            u = u + prob.source(x, t) * (h * h) * (dt / (h * h))
            if prob.dirichlet is not None:
                u[[0, -1]] = prob.dirichlet(x[[0, -1]], t_new)
            t, steps = t_new, steps + 1
        assert res.snapshots[-1].values.tobytes() == u.tobytes()
        assert (res.stats.steps, res.stats.min_dt) == (steps, min(dt_max, dt))


# one member of every family, its eps > 0 leaf at growth exponent 2 and 3 too
LEAVES = {
    "normalized(3)": OperatorSpec.normalized(3.0),
    "variational(3)": OperatorSpec.variational(3.0),
    "variational(1.5)": OperatorSpec.variational(1.5),
    "general_pq(3,1.5)": OperatorSpec.general_pq(3.0, 1.5),
    "regularized_pq(1,2,0.1)": OperatorSpec.regularized_pq(1.0, 2.0, 0.1),
    "regularized_pq(2,3,0.1)": OperatorSpec.regularized_pq(2.0, 3.0, 0.1),
    "regularized_pq(3,4,0)": OperatorSpec.regularized_pq(3.0, 4.0, 0.0),
    "biased_infinity(0.5)": OperatorSpec.biased_infinity(0.5),
    "biased_infinity_regularized(0.5,0.1,0.1)":
        OperatorSpec.biased_infinity_regularized(0.5, 0.1, 0.1),
}


def crest_problem(spec, dim):
    """1,024 periodic nodes of sin x, or 48 x 40 of sin x cos y: crests with an
    exactly zero discrete gradient, so the singular-gradient policy engages."""
    if dim == 1:
        grid = GridSpec.line(0.0, 2.0 * math.pi, 1024, Boundary.PERIODIC)
        return Problem(spec=spec, grid=grid, initial=np.sin, T=1.0)
    grid = GridSpec.box(((0.0, 2 * math.pi), (0.0, 2 * math.pi)), (48, 40), Boundary.PERIODIC)
    return Problem(spec=spec, grid=grid, initial=lambda x, y: np.sin(x) * np.cos(y), T=1.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", list(LEAVES))
def test_steps_allocate_no_row_array(name, dim):
    # every temporary of a step lives in a buffer the solve allocates once: after
    # warm-up, 100 steps together allocate less than one row-size array at a time
    prob = crest_problem(LEAVES[name], dim)
    _, rate, update, *_ = evolve._kernel([prob], prob.initial_field().values[None])
    row_bytes = Stencil(prob.grid, prob.initial_field().values).rows.nbytes
    t = 0.0

    def steps(k):
        nonlocal t
        for _ in range(k):
            dt = rate(t)
            update(dt, t + dt)
            t += dt

    steps(3)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        steps(100)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < row_bytes
    assert end - start < row_bytes


def placed_row_arrays(rate, update):
    """The row-size arrays a kernel and its stencil hold, read from the
    closures of the kernel's two stages: the stencil's field buffer,
    gradient, Hessian and 2u arrays, and the kernel's r2, diff, work, zero,
    c_out and table[0] (the per-member parameters of ``Stencil.spread`` are
    not among them)."""
    cells = {}
    for fn in (rate, update):
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
            try:
                cells[name] = cell.cell_contents
            except ValueError:  # a name this kernel never binds (the singular nodes')
                pass
    stencil = cells["gradient"].__self__
    arrays = [stencil._buffer, *stencil._wide, *stencil._hess.values(), stencil._twice,
              *(cells[k] for k in ("r2", "diff", "work", "zero", "c_out")), cells["table"][0]]
    unique = list({id(a): a for a in arrays}.values())  # in 2D 2u is the cross entry's array
    assert all(a.nbytes >= stencil.rows.size for a in unique)
    return unique


def barenblatt_2d_problem(n=129):
    sol = ExactSolution(SolutionId.BARENBLATT, p=3.0, n=2, A=1.0)
    grid = GridSpec.box(((-2.0, 2.0), (-2.0, 2.0)), (n, n), Boundary.DIRICHLET)
    return Problem(spec=OperatorSpec.variational(3.0), grid=grid, T=0.5,
                   initial=lambda x, y: sol.eval_radial(np.hypot(x, y), 1.0),
                   dirichlet=lambda x, y, t: sol.eval_radial(np.hypot(x, y), 1.0 + t))


@pytest.mark.parametrize("case", ["2d table member", "1d batch"])
def test_row_arrays_start_at_distinct_page_offsets(case):
    # the stencil places every row-size array page-aligned plus its own
    # stagger, so no two start in the same cache line modulo 4 KiB (left to
    # np.empty, some of them start at the same offset)
    if case == "2d table member":
        problems = [barenblatt_2d_problem()]
    else:  # a regularized eps sweep on 1,024 periodic nodes, as one batch
        base = crest_problem(OperatorSpec.regularized_pq(2.0, 3.0, 0.1), 1)
        problems = [replace(base, spec=OperatorSpec.regularized_pq(2.0, 3.0, eps))
                    for eps in (0.1, 0.05, 0.025)]
    assert len({evolve._choices(p) for p in problems}) == 1
    _, rate, update, *_ = evolve._kernel(
        problems, [p.initial_field().values for p in problems])
    arrays = placed_row_arrays(rate, update)
    assert len(arrays) == (12 if case == "2d table member" else 10)
    offsets = sorted(a.ctypes.data % 4096 for a in arrays)
    gaps = [b - a for a, b in zip(offsets, offsets[1:])] + [offsets[0] + 4096 - offsets[-1]]
    assert min(gaps) >= 64, offsets


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", list(LEAVES))
def test_buffered_leaves_are_bitwise_the_allocating_ones(monkeypatch, name, dim):
    # the leaf computes into the kernel's buffers exactly what it computes into
    # new arrays: a kernel fed copies of the allocating leaf's (s, c) steps alike
    prob = crest_problem(LEAVES[name], dim)
    prob = replace(prob, T=30.0 * cfl_dt(prob, prob.initial_field()))  # about 30 steps
    want = solve(prob).snapshots[-1].values
    original = evolve.rank_one_coeff_arrays

    def allocating(spec, r2, out=None, eps=None, work=None, params=None):
        s, c = original(spec, r2, eps=eps, params=params)
        if out is not None:
            out[...] = c
            c = out
        if work is not None and not isinstance(s, float):
            work[0][...] = s
            s = work[0]
        return s, c

    monkeypatch.setattr(evolve, "rank_one_coeff_arrays", allocating)
    np.testing.assert_array_equal(solve(prob).snapshots[-1].values, want)


class TestReflectionSymmetry:
    """Data symmetric about a node stays bitwise symmetric, because every
    stencil sum is taken in an order that reflection maps onto itself; so a
    symmetric critical point keeps an exactly zero discrete gradient."""

    @staticmethod
    def assert_symmetric(res, periodic_axis=None):
        assert len(res.snapshots) == 11
        for snap in res.snapshots:
            v = snap.values
            for axis in range(v.ndim):
                mirror = np.flip(v, axis)
                if axis == periodic_axis:  # node i <-> -i (mod n): node 0 stays put
                    mirror = np.roll(mirror, 1, axis)
                assert np.array_equal(v, mirror), (snap.time, axis)

    @pytest.mark.parametrize("spec", [
        OperatorSpec.normalized(3.0), OperatorSpec.variational(1.5),
        OperatorSpec.regularized_pq(3.0, 4.0, 0.0), OperatorSpec.regularized_pq(1.0, 2.0, 0.0),
    ], ids=["normalized(3)", "variational(1.5)", "regularized_pq(3,4,0)",
            "regularized_pq(1,2,0)"])
    def test_shrinking_circles(self, spec):
        # the data of test_curvature_mode_shrinking_circles: u = r^2/2 + t on
        # 33^2 Dirichlet nodes over [-1, 1]^2, whose coordinates are exact
        def exact(x, y, t):
            return (x * x + y * y) / 2.0 + t

        grid = GridSpec.box(((-1, 1), (-1, 1)), (33, 33), Boundary.DIRICHLET)
        times = tuple(0.01 * k for k in range(11))
        res = solve(Problem(spec=spec, grid=grid, initial=lambda x, y: exact(x, y, 0.0), T=0.1,
                            dirichlet=exact, controls=SolverControls(snapshot_times=times)))
        self.assert_symmetric(res)

    def test_barenblatt_centre_stays_singular(self):
        # the 2D benchmark's member and data on 33^2 nodes over [-2, 2]^2: the
        # centre's discrete gradient stays exactly 0 at every capture
        sol = ExactSolution(SolutionId.BARENBLATT, p=3.0, n=2, A=1.0)

        def data(x, y, t):
            return sol.eval_radial(np.sqrt(x * x + y * y), 1.0 + t)

        grid = GridSpec.box(((-2, 2), (-2, 2)), (33, 33), Boundary.DIRICHLET)
        times = tuple(0.05 * k for k in range(11))
        res = solve(Problem(spec=OperatorSpec.variational(3.0), grid=grid,
                            initial=lambda x, y: data(x, y, 0.0), T=0.5, dirichlet=data,
                            controls=SolverControls(snapshot_times=times)))
        self.assert_symmetric(res)
        for snap in res.snapshots:
            assert all(g[16, 16] == 0.0 for g in gradient_arrays(snap))

    def test_periodic_line(self):
        # 64 periodic nodes on [-1, 1): data even about x = 0 (node 32), whose
        # mirror is node i <-> 64 - i, with x = -1 (node 0) its own mirror
        grid = GridSpec.line(-1.0, 1.0, 64, Boundary.PERIODIC)
        times = tuple(0.005 * k for k in range(11))
        res = solve(Problem(spec=OperatorSpec.variational(3.0), grid=grid,
                            initial=lambda x: x * x * (1.0 - x * x) + 0.3 * np.minimum(x * x, 0.25),
                            T=0.05, controls=SolverControls(snapshot_times=times)))
        self.assert_symmetric(res, periodic_axis=0)


class TestTwoDimensional:
    def test_heat_p2_product_sine(self):
        grid = GridSpec.box(((0, 2 * math.pi), (0, 2 * math.pi)), (48, 48),
                            Boundary.PERIODIC)
        prob = Problem(spec=OperatorSpec.normalized(2.0), grid=grid,
                       initial=lambda x, y: np.sin(x) * np.sin(y), T=0.1)
        res = solve(prob)
        X, Y = grid.meshes()
        exact = math.exp(-2.0 * 0.1) * np.sin(X) * np.sin(Y)
        assert np.max(np.abs(res.snapshots[-1].values - exact)) < 2e-3

    def test_infinity_laplacian_steady_state(self):
        # rotated Aronsson profile: infinity-harmonic, exercises the cross stencil
        c, s = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)

        def aronsson(x, y):
            u = c * x + s * y
            v = s * x - c * y
            return np.abs(u) ** (4.0 / 3.0) - np.abs(v) ** (4.0 / 3.0)

        grid = GridSpec.box(((1.6, 2.4), (-0.2, 0.2)), (33, 17), Boundary.DIRICHLET)
        prob = Problem(spec=OperatorSpec.biased_infinity(0.0), grid=grid,
                       initial=aronsson, T=0.02,
                       dirichlet=lambda x, y, t: aronsson(x, y))
        res = solve(prob)
        drift = sup_diff(res.snapshots[-1], prob.initial_field())
        assert drift < 5e-4

        # u + t under a unit source: the boundary refresh now moves every
        # step. Steps and node values are pinned to what the scheme gave
        # before the ghost-cell stencil rewrite (1e-12 relative).
        prob = Problem(spec=OperatorSpec.biased_infinity(0.0), grid=grid,
                       initial=aronsson, T=0.02,
                       source=lambda x, y, t: np.full_like(x, 1.0),
                       dirichlet=lambda x, y, t: aronsson(x, y) + t)
        res = solve(prob)
        final = res.snapshots[-1].values
        X, Y = grid.meshes()
        assert np.max(np.abs(final - aronsson(X, Y) - 0.02)) < 1e-7
        assert res.stats.steps == 256
        assert res.stats.min_dt == pytest.approx(7.812499999999996e-05, rel=1e-12, abs=0)
        golden = [-0.23178926982857423, 0.17873183666871378, -0.09046841067975837]
        assert final[[5, 16, 27], [3, 11, 6]] == pytest.approx(golden, rel=1e-12, abs=0)

    def test_curvature_mode_shrinking_circles(self):
        # level-set curvature mode (p = 1, p' = 2): u = r^2/2 + t evolves
        # circular level sets by curvature; the center node exercises the 2D
        # singular-gradient proxy
        def exact(x, y, t):
            return (x * x + y * y) / 2.0 + t

        def run(spec, n):
            grid = GridSpec.box(((-1, 1), (-1, 1)), (n, n), Boundary.DIRICHLET)
            prob = Problem(spec=spec, grid=grid, initial=lambda x, y: exact(x, y, 0.0),
                           T=0.1, dirichlet=exact)
            res = solve(prob)
            X, Y = grid.meshes()
            err = float(np.max(np.abs(res.snapshots[-1].values - exact(X, Y, 0.1))))
            return res, err

        curvature = OperatorSpec.regularized_pq(1.0, 2.0, 0.0)
        errs = [run(curvature, n)[1] for n in (33, 65)]
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] > 2.5

        # Both singular-policy branches on 33^2 (the centre node has a zero
        # gradient): step count, min dt and three node values, the centre
        # (16, 16) included, pinned at 1e-12 relative. Recorded with the
        # reflection-exact stencil sums, under which the symmetric data keeps
        # the centre's gradient exactly 0 at every step, so the centre takes
        # the eps_num form throughout.
        pins = [
            (curvature, [0.10081307981835089, 0.12539073252723046, 0.24453120810944512]),
            (OperatorSpec.biased_infinity(0.0),
             [0.05406210800028928, 0.10558134101562565, 0.23966669425107712]),
        ]
        for spec, golden in pins:
            res, _ = run(spec, 33)
            assert res.stats.steps == 205
            assert res.stats.min_dt == pytest.approx(0.00039062500000000555, rel=1e-12, abs=0)
            final = res.snapshots[-1].values
            assert final[[16, 13, 21], [16, 18, 9]] == pytest.approx(golden, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec, source, steps, min_dt, golden", [
        (OperatorSpec.normalized(3.0), None, 24, 0.0014753032877364708,
         [-0.22867827100594085, 0.3820086604709012, 0.5795747049558199]),
        (OperatorSpec.biased_infinity_regularized(a=0.5, eps1=0.1, eps2=0.1),
         lambda x, y, t: (1.0 + t) * np.cos(x - 2.0 * y), 13, 0.006035462552818963,
         [-0.14677097006281026, 0.5970956627139178, 0.6731467552543674]),
    ])
    def test_periodic_non_square_pins(self, spec, source, steps, min_dt, golden):
        # 24 x 17 periodic, so the axes differ in length and the corner node
        # (23, 16) has a cross term that wraps in both axes; the second member
        # also runs the first-order term and the source. Pinned at 1e-12
        # relative to the scheme before the row-layout kernel.
        grid = GridSpec.box(((0.0, 2 * math.pi), (0.0, 2 * math.pi)), (24, 17), Boundary.PERIODIC)
        prob = Problem(spec=spec, grid=grid, T=0.1, source=source,
                       initial=lambda x, y: np.sin(x) * np.cos(y) + 0.2 * np.sin(2.0 * y + 0.3))
        res = solve(prob)
        assert res.stats.steps == steps
        assert res.stats.min_dt == pytest.approx(min_dt, rel=1e-12, abs=0)
        final = res.snapshots[-1].values
        assert final[[23, 7, 15], [16, 3, 10]] == pytest.approx(golden, rel=1e-12, abs=0)

    def test_dirichlet_data_evaluated_on_boundary_nodes_only(self):
        nx, ny = 17, 9
        grid = GridSpec.box(((0, 1), (0, 1)), (nx, ny), Boundary.DIRICHLET)
        calls = []

        def g(x, y, t):
            calls.append((t, np.shape(x), np.shape(y)))
            return x + y + t

        prob = Problem(spec=OperatorSpec.normalized(2.0), grid=grid,
                       initial=lambda x, y: x + y, T=0.01, dirichlet=g)
        res = solve(prob)
        later = [(sx, sy) for t, sx, sy in calls if t > 0.0]
        ring = 2 * (nx + ny) - 4
        assert len(later) == res.stats.steps
        assert all(sx == sy == (ring,) for sx, sy in later)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_source_evaluated_on_updated_nodes_only(self, boundary):
        # every node of a periodic grid, the interior of a Dirichlet one
        nx, ny = 17, 9
        grid = GridSpec.box(((0, 1), (0, 1)), (nx, ny), boundary)
        shapes = []

        def f(x, y, t):
            shapes.append((np.shape(x), np.shape(y)))
            return 0.0 * x

        prob = Problem(spec=OperatorSpec.normalized(2.0), grid=grid, source=f,
                       initial=lambda x, y: x + y, T=0.01, dirichlet=lambda x, y, t: x + y)
        res = solve(prob)
        inner = (nx, ny) if boundary is Boundary.PERIODIC else (nx - 2, ny - 2)
        assert len(shapes) == res.stats.steps
        assert set(shapes) == {(inner, inner)}

    def test_quadratic_with_source_is_exact(self):
        # u = x^2 + y^2 + t has u_t = 1, tr(A D2u) = 4 for A = I, and the
        # first-order term is H = -f, so u_t = tr + f needs f = -3; stencils
        # are exact on quadratics and the march is exact in time.
        grid = GridSpec.box(((0, 1), (0, 1)), (17, 17), Boundary.DIRICHLET)

        def exact(x, y, t):
            return x * x + y * y + t

        prob = Problem(
            spec=OperatorSpec.normalized(2.0), grid=grid,
            initial=lambda x, y: exact(x, y, 0.0), T=0.05,
            source=lambda x, y, t: np.full_like(x, -3.0),
            dirichlet=exact,
        )
        res = solve(prob)
        X, Y = grid.meshes()
        want = exact(X, Y, 0.05)
        assert np.max(np.abs(res.snapshots[-1].values - want)) < 1e-12
