import math

import numpy as np
import pytest

from plaplab import ExactSolution, SolutionId, residual, sup_diff_closed_form
from plaplab.exact import SingularPointError


def barenblatt(p, n=1, A=1.0):
    return ExactSolution(SolutionId.BARENBLATT, p=p, n=n, A=A)


class TestValidity:
    def test_barenblatt_windows(self):
        barenblatt(1.2, n=1)  # 2n/(n+1) = 1 for n = 1
        with pytest.raises(ValueError):
            barenblatt(1.2, n=2)  # needs p > 4/3
        with pytest.raises(ValueError):
            barenblatt(2.0, n=1)
        with pytest.raises(ValueError):
            ExactSolution(SolutionId.BARENBLATT, p=3.0, n=1, A=0.0)

    def test_fundamental_needs_p_above_n(self):
        with pytest.raises(ValueError):
            ExactSolution(SolutionId.FUNDAMENTAL, p=2.0, n=3)
        ExactSolution(SolutionId.FUNDAMENTAL, p=4.0, n=3)

    def test_radial_elliptic_needs_p_above_one(self):
        with pytest.raises(ValueError):
            ExactSolution(SolutionId.RADIAL_ELLIPTIC, p=1.0)

    def test_torsion_needs_positive_source(self):
        with pytest.raises(ValueError):
            ExactSolution(SolutionId.TORSION_RADIAL, p=3.0, c=0.0)

    @pytest.mark.parametrize("name", ["p", "A", "c"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, name, bad):
        # a NaN passed every < / <= window, and its residual read 0
        for sid in SolutionId:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ExactSolution(sid, **({"p": 3.0} | {name: bad}))

    def test_field_the_solution_does_not_read_rejected(self):
        # A = 7 on the torsion profile and c = 2 on the others were ignored
        for sid in SolutionId:
            for name, reader in (("A", SolutionId.BARENBLATT), ("c", SolutionId.TORSION_RADIAL)):
                ExactSolution(sid, **{"p": 3.0, name: 1.0})  # the default is no reading
                if sid is not reader:
                    with pytest.raises(ValueError, match=f"{sid.value} does not read {name}"):
                        ExactSolution(sid, **{"p": 3.0, name: 2.0})
        ExactSolution(SolutionId.BARENBLATT, p=3.0, A=2.0)
        ExactSolution(SolutionId.TORSION_RADIAL, p=3.0, c=2.0)

    def test_singular_point_is_a_value_error(self):
        # a radius outside the domain is a usage error, as a bad parameter is
        assert issubclass(SingularPointError, ValueError)

    def test_dimension_is_a_whole_number(self):
        for n in (0, 1.5, 2.5, 4, math.nan):
            with pytest.raises(ValueError, match="n must be 1, 2 or 3"):
                ExactSolution(SolutionId.RADIAL_ELLIPTIC, p=3.0, n=n)
        ExactSolution(SolutionId.RADIAL_ELLIPTIC, p=3.0, n=2.0)


class TestEval:
    def test_heat_mode_initial_crest(self):
        sol = ExactSolution(SolutionId.HEAT_MODE, p=3.0)
        assert sol.eval(math.pi / 2.0, 0.0) == pytest.approx(1.0)

    def test_heat_mode_decay(self):
        sol = ExactSolution(SolutionId.HEAT_MODE, p=3.0)
        assert sol.eval(math.pi / 2.0, 0.5) == pytest.approx(math.exp(-1.0))

    def test_barenblatt_center_value(self):
        sol = barenblatt(3.0, n=1, A=1.0)
        assert sol.lambda_p == pytest.approx(4.0)
        assert sol.eval(0.0, 1.0) == pytest.approx(1.0)

    def test_fundamental_unit_radius(self):
        sol = ExactSolution(SolutionId.FUNDAMENTAL, p=3.0, n=2)
        assert sol.eval([1.0, 0.0]) == pytest.approx(1.0)

    def test_radial_elliptic_square(self):
        sol = ExactSolution(SolutionId.RADIAL_ELLIPTIC, p=3.0, n=2)
        assert sol.eval([0.5, 0.0]) == pytest.approx(0.25)

    def test_torsion_profile(self):
        # p = 3, n = 2, c = 2: v = -(2/3) r^(3/2), and -Delta_3 v = 2
        sol = ExactSolution(SolutionId.TORSION_RADIAL, p=3.0, n=2, c=2.0)
        r = np.array([0.0, 0.25, 0.64, 1.0])
        np.testing.assert_allclose(sol.eval_radial(r), -2.0 / 3.0 * r ** 1.5, rtol=1e-15, atol=0.0)
        assert sol.eval([0.0, 0.64]) == pytest.approx(-2.0 / 3.0 * 0.512, rel=1e-15)
        # the discrete residual reads the profile through eval_radial: O(h^2)
        r1 = abs(residual(sol, 0.5, mode="discrete", h=4e-3, clearance=0.05))
        r2 = abs(residual(sol, 0.5, mode="discrete", h=2e-3, clearance=0.05))
        assert r1 < 1e-4 and r2 <= r1 / 3.0

    def test_point_eval_reads_eval_radial(self):
        # heat mode had its own math.exp copy, one ulp off np.exp at some t
        for sid in SolutionId:
            sol = ExactSolution(sid, p=3.5, n=2)
            for x, t in ((0.4, 0.3), (-1.3, 1.7), (2.8, 0.05)):
                r = x if sid is SolutionId.HEAT_MODE else np.linalg.norm([x, 0.5])
                assert sol.eval([x, 0.5], t) == sol.eval_radial(np.array([r]), t)[0]

    def test_barenblatt_needs_positive_time(self):
        with pytest.raises(ValueError):
            barenblatt(3.0).eval(0.0, 0.0)


class TestBarenblattStructure:
    def test_gamma_sign_regimes(self):
        assert barenblatt(1.5, n=1).gamma_p > 0.0  # 2n/(n+1) < p < 2
        assert barenblatt(1.7, n=2).gamma_p > 0.0
        assert barenblatt(3.0, n=1).gamma_p < 0.0
        assert barenblatt(4.0, n=2).gamma_p < 0.0

    def test_compact_support_exact_zero(self):
        sol = barenblatt(3.0, n=1)
        R = sol.support_radius(1.0)
        assert sol.eval(R * 1.01, 1.0) == 0.0
        assert sol.eval(R * 0.99, 1.0) > 0.0

    def test_self_similar_scaling(self):
        rng = np.random.default_rng(9)
        for p, n in ((3.0, 1), (1.5, 1), (4.0, 2), (1.7, 2)):
            sol = barenblatt(p, n=n)
            lam = sol.lambda_p
            for _ in range(25):
                kappa = rng.uniform(0.5, 2.0)
                t = rng.uniform(0.5, 2.0)
                r = rng.uniform(0.0, 0.8) * min(sol.support_radius(t), 3.0)
                lhs = sol.eval_radial(np.array([kappa ** (1.0 / lam) * r]), kappa * t)[0]
                rhs = kappa ** (-n / lam) * sol.eval_radial(np.array([r]), t)[0]
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_sine_section_on_grid(self):
        sol = ExactSolution(SolutionId.HEAT_MODE, p=2.5)
        x = np.linspace(0.0, 2.0 * math.pi, 97)
        np.testing.assert_allclose(sol.eval_radial(x, 0.0), np.sin(x), atol=1e-15)


class TestAnalyticResiduals:
    def test_heat_mode_everywhere(self):
        sol = ExactSolution(SolutionId.HEAT_MODE, p=3.0)
        for x, t in ((0.3, 0.0), (-1.2, 0.7), (2.0, 2.0)):
            assert abs(residual(sol, x, t)) <= 1e-14

    def test_radial_elliptic_hand_value(self):
        # p = 3, n = 1: Delta_3(x^2) = 8|x| and lambda_3 = 8 cancel at any radius
        sol = ExactSolution(SolutionId.RADIAL_ELLIPTIC, p=3.0, n=1)
        assert sol.lambda_p == pytest.approx(8.0)
        assert abs(residual(sol, 0.7)) <= 1e-12

    def test_elliptic_profiles_random_radii(self):
        rng = np.random.default_rng(17)
        radii = 0.01 + 0.99 * rng.random(100)
        for p in (2.5, 3.0, 4.0):
            for n in (1, 2):
                for sid, given in ((SolutionId.RADIAL_ELLIPTIC, {}),
                                   (SolutionId.TORSION_RADIAL, {"c": 2.0})):
                    sol = ExactSolution(sid, p=p, n=n, **given)
                    worst = max(abs(residual(sol, r, clearance=1e-3)) for r in radii)
                    assert worst <= 1e-10
                if p > n:
                    sol = ExactSolution(SolutionId.FUNDAMENTAL, p=p, n=n)
                    worst = max(abs(residual(sol, r, clearance=1e-3)) for r in radii)
                    assert worst <= 1e-10

    def test_barenblatt_both_regimes(self):
        for p, n in ((3.0, 1), (1.5, 1), (4.0, 2)):
            sol = barenblatt(p, n=n)
            for t in (0.8, 1.5):
                rmax = min(sol.support_radius(t) * 0.9, 2.5)
                for r in np.linspace(0.1, rmax, 7):
                    assert abs(residual(sol, r, t=t, clearance=0.05)) <= 1e-9

    def test_singular_set_guard(self):
        sol = ExactSolution(SolutionId.RADIAL_ELLIPTIC, p=3.0, n=2)
        with pytest.raises(SingularPointError):
            residual(sol, 1e-6, clearance=1e-3)
        bb = barenblatt(3.0, n=1)
        R = bb.support_radius(1.0)
        with pytest.raises(SingularPointError):
            residual(bb, R, t=1.0, clearance=0.05)


class TestDiscreteResiduals:
    def test_second_order_trend(self):
        cases = [
            (ExactSolution(SolutionId.RADIAL_ELLIPTIC, p=3.5, n=2), 0.6, None),
            (ExactSolution(SolutionId.FUNDAMENTAL, p=4.0, n=2), 0.5, None),
            (barenblatt(3.0, n=1), 1.0, 1.5),
        ]
        for sol, r, t in cases:
            r1 = abs(residual(sol, r, t=t, mode="discrete", h=4e-3, clearance=0.05))
            r2 = abs(residual(sol, r, t=t, mode="discrete", h=2e-3, clearance=0.05))
            assert r2 <= r1 / 3.0 or r2 < 1e-11

    @pytest.mark.parametrize("t", [0.0, 1e-3])
    def test_heat_mode_first_order_below_h(self, t):
        # below t = h the time stencil is one-sided: the defect halves with h
        sol = ExactSolution(SolutionId.HEAT_MODE, p=3.0)
        r1 = abs(residual(sol, 0.4, t=t, mode="discrete", h=4e-3))
        r2 = abs(residual(sol, 0.4, t=t, mode="discrete", h=2e-3))
        assert r1 < 5e-3 and 0.45 <= r2 / r1 <= 0.55

    def test_spacing_below_clearance_required(self):
        sol = ExactSolution(SolutionId.RADIAL_ELLIPTIC, p=3.0, n=1)
        with pytest.raises(ValueError):
            residual(sol, 0.5, mode="discrete", h=0.01, clearance=0.005)


HEAT = ExactSolution(SolutionId.HEAT_MODE, p=3.0)
TORSION = ExactSolution(SolutionId.TORSION_RADIAL, p=3.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ExactSolution(SolutionId.HEAT_MODE, p=0.5), ValueError, "heat mode requires p >= 1"),
    (lambda: TORSION.lambda_p, ValueError, "lambda_p undefined for torsion"),
    (lambda: HEAT.lambda_p, ValueError, "lambda_p undefined for heat_mode"),
    (lambda: TORSION.support_radius(1.0), ValueError, "support radius applies"),
    (lambda: HEAT.eval(0.5, -0.1), ValueError, "t must be >= 0"),
    (lambda: residual(barenblatt(3.0), 1.5 * barenblatt(3.0).support_radius(1.0), t=1.0,
                      clearance=0.05), SingularPointError, "point outside the support"),
    (lambda: residual(TORSION, 0.5, clearance=0.0), ValueError, "clearance must be > 0"),
    (lambda: residual(HEAT, 0.5, clearance=-1.0), ValueError, "clearance must be > 0"),
    (lambda: residual(barenblatt(3.0), 0.5), ValueError, "self-similar solution needs t > 0"),
    (lambda: residual(barenblatt(3.0), 0.5, t=0.0), ValueError,
     "self-similar solution needs t > 0"),
    (lambda: residual(TORSION, 0.5, mode="spectral"), ValueError, "mode must be"),
    (lambda: residual(TORSION, 0.5, mode="discrete", clearance=0.05), ValueError,
     "discrete mode needs a spacing h > 0"),
    (lambda: residual(TORSION, 0.5, mode="discrete", h=0.0, clearance=0.05), ValueError,
     "discrete mode needs a spacing h > 0"),
    # a NaN spacing or clearance passed the <= 0 tests: the residual read nan,
    # or a point 1e-6 from the origin was evaluated with no guard
    (lambda: residual(ExactSolution(SolutionId.RADIAL_ELLIPTIC, p=3.0), 0.5, mode="discrete",
                      h=math.nan), ValueError, "discrete mode needs a spacing h > 0"),
    (lambda: residual(HEAT, 0.5, mode="discrete", h=math.inf), ValueError,
     "discrete mode needs a spacing h > 0"),
    (lambda: residual(barenblatt(3.0), 1e-6, t=1.0, clearance=math.nan), ValueError,
     "clearance must be > 0"),
    (lambda: residual(HEAT, 0.5, clearance=math.inf), ValueError, "clearance must be > 0"),
    (lambda: residual(barenblatt(1.5), 0.5, t=1e-3, mode="discrete", h=2e-3, clearance=0.05),
     ValueError, "time stencil leaves t > 0"),
], ids=["heat_p", "lambda_torsion", "lambda_heat", "support_torsion", "heat_eval_t",
        "outside_support", "clearance_zero", "clearance_negative", "barenblatt_no_t",
        "barenblatt_t0", "mode", "no_h", "zero_h", "nan_h", "inf_h_heat", "nan_clearance",
        "inf_clearance_heat", "time_stencil"])
def test_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestSupDiffClosedForm:
    def test_same_parameters_zero(self):
        a = ExactSolution(SolutionId.HEAT_MODE, p=3.0)
        points, times = np.linspace(0.0, 2.0 * math.pi, 100), np.linspace(0.0, 1.0, 10)
        assert sup_diff_closed_form(a, a, points, times) == 0.0

    def test_heat_mode_quarter_gap(self):
        # max_t |e^{-2t} - e^{-t}| = 1/4 at t = ln 2
        a = ExactSolution(SolutionId.HEAT_MODE, p=3.0)
        b = ExactSolution(SolutionId.HEAT_MODE, p=2.0)
        got = sup_diff_closed_form(a, b, np.linspace(0, 2 * math.pi, 4097),
                                   (0.0, 0.25, math.log(2.0), 1.0))
        assert got == pytest.approx(0.25, abs=1e-6)

    def test_family_mismatch_rejected(self):
        a = ExactSolution(SolutionId.HEAT_MODE, p=3.0)
        b = ExactSolution(SolutionId.RADIAL_ELLIPTIC, p=3.0)
        with pytest.raises(ValueError):
            sup_diff_closed_form(a, b, np.linspace(0.0, 1.0, 10), (0.0, 1.0))

    def test_empty_samples_rejected(self):
        # no times would make the sup over nothing read 0.0
        a = ExactSolution(SolutionId.HEAT_MODE, p=3.0)
        b = ExactSolution(SolutionId.HEAT_MODE, p=2.0)
        for points, times in (([], (0.0, 1.0)), ([0.0, 1.0], ())):
            with pytest.raises(ValueError, match="nonempty"):
                sup_diff_closed_form(a, b, points, times)

    def test_barenblatt_linear_envelope(self):
        # gap / |p - q| stabilizes as p -> q on a clearance domain
        q = 3.0
        points, times = np.linspace(0.0, 2.0, 400), np.linspace(1.0, 2.0, 40)
        base = barenblatt(q, n=1)
        ratios = []
        for eps in (0.1, 0.05, 0.025, 0.0125):
            gap = sup_diff_closed_form(barenblatt(q + eps, n=1), base, points, times)
            ratios.append(gap / eps)
        assert ratios[-1] > 0.0
        assert 0.8 <= ratios[0] / ratios[-1] <= 1.25
