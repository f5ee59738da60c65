import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab import CaseNotApplicableError, FamilyCase, family_rate, rates, theoretical_rate


class TestMasterFormula:
    def test_spot_values(self):
        assert theoretical_rate(1.0, 0.0, 1.0) == 1.0
        assert theoretical_rate(1.0, -0.3, 0.5) == 0.5
        assert theoretical_rate(1.0, 1.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_rejections(self):
        with pytest.raises(ValueError):
            theoretical_rate(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            theoretical_rate(1.0, 0.0, 1.5)
        with pytest.raises(ValueError):
            theoretical_rate(0.0, 0.0, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(min_value=1e-3, max_value=10.0),
           beta=st.floats(min_value=-50.0, max_value=0.0),
           theta=st.floats(min_value=1e-6, max_value=1.0))
    def test_nonpositive_beta_branch_exact(self, alpha, beta, theta):
        assert theoretical_rate(alpha, beta, theta) == alpha * theta

    @pytest.mark.parametrize("name", ["alpha", "beta", "theta"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, name, bad):
        # beta = nan returned nan, and beta = inf at theta = 1 returned nan
        args = {"alpha": 1.0, "beta": 0.5, "theta": 1.0} | {name: bad}
        with pytest.raises(CaseNotApplicableError, match="finite"):
            theoretical_rate(**args)

    def test_strictly_decreasing_in_positive_beta(self):
        theta = 0.5
        vals = [theoretical_rate(1.0, b, theta) for b in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


# each case's parameters, at values inside its window
READS = {
    FamilyCase.NORMALIZED: {"p": 3.0, "q": 3.0},
    FamilyCase.VARIATIONAL_SINGULAR: {"p": 1.5, "q": 1.8},
    FamilyCase.VARIATIONAL_DEGENERATE: {"p": 3.0, "q": 3.0},
    FamilyCase.GENERAL_PQ_SINGULAR: {"p_prime": 1.5, "q_prime": 1.8},
    FamilyCase.GENERAL_PQ_DEGENERATE: {"p_prime": 3.0, "q_prime": 3.0},
    FamilyCase.GENERAL_PQ_MATCHED: {"q_prime": 3.0},
    FamilyCase.REGULARIZED: {"p": 1.0, "p_prime": 3.5, "m": 0.5},
    FamilyCase.BIASED_INFINITY: {"m": 0.25},
}


class TestFamilyRate:
    def test_normalized(self):
        pred = family_rate(FamilyCase.NORMALIZED, theta=0.7)
        assert pred.nu_sup == pytest.approx(0.7) and pred.attained

    def test_variational_cases(self):
        p1 = family_rate(FamilyCase.VARIATIONAL_SINGULAR, theta=0.5, p=1.5, q=1.8)
        assert p1.nu_sup == 0.5 and p1.attained
        p2 = family_rate(FamilyCase.VARIATIONAL_DEGENERATE, theta=0.5, p=3.0, q=3.0)
        assert p2.nu_sup == pytest.approx(2 * 0.5 / (2 * 0.5 + 0.5 * 3.0))
        assert not p2.attained
        p3 = family_rate(FamilyCase.VARIATIONAL_DEGENERATE, theta=1.0, p=3.0, q=3.0)
        assert p3.nu_sup == 1.0 and p3.attained

    def test_variational_windows(self):
        with pytest.raises(CaseNotApplicableError):
            family_rate(FamilyCase.VARIATIONAL_SINGULAR, theta=0.5, p=2.5, q=1.8)
        with pytest.raises(CaseNotApplicableError):
            family_rate(FamilyCase.VARIATIONAL_DEGENERATE, theta=0.5, p=3.0, q=1.5)

    def test_general_matched_equals_master_formula(self):
        for qp in (1.5, 2.0, 3.0, 4.0, 6.0):
            for theta in (0.25, 0.5, 1.0):
                pred = family_rate(FamilyCase.GENERAL_PQ_MATCHED, theta=theta, q_prime=qp)
                want = theoretical_rate(1.0, qp / 2.0 - 1.0, theta)
                assert abs(pred.nu_sup - want) <= 1e-12
                assert pred.attained

    def test_general_pq_spot(self):
        pred = family_rate(FamilyCase.GENERAL_PQ_MATCHED, theta=0.5, q_prime=4.0)
        assert pred.nu_sup == pytest.approx(1.0 / 3.0)

    def test_regularized_cases(self):
        r2 = family_rate(FamilyCase.REGULARIZED, theta=1.0, p_prime=2.5)
        assert r2.nu_sup == pytest.approx(0.5) and r2.attained
        r4 = family_rate(FamilyCase.REGULARIZED, theta=0.5, p_prime=5.0)
        assert r4.nu_sup == pytest.approx(1.0 / 3.0) and not r4.attained
        r1 = family_rate(FamilyCase.REGULARIZED, theta=1.0, p_prime=2.0)
        assert r1.nu_sup == pytest.approx(0.5) and not r1.attained
        r3 = family_rate(FamilyCase.REGULARIZED, theta=0.25, p_prime=3.5)
        assert r3.nu_sup == pytest.approx(0.25) and not r3.attained

    def test_regularized_explicit_m(self):
        pred = family_rate(FamilyCase.REGULARIZED, theta=1.0, p_prime=2.0, m=0.3)
        assert pred.nu_sup == pytest.approx(0.3) and not pred.attained
        with pytest.raises(CaseNotApplicableError):
            family_rate(FamilyCase.REGULARIZED, theta=1.0, p_prime=2.0, m=0.6)
        # m below the sup-optimal window still yields the master formula value
        pred = family_rate(FamilyCase.REGULARIZED, theta=0.5, p_prime=3.5, m=0.5)
        want = theoretical_rate(0.5, 3.5 / 2.0 - 1.0 - 0.5, 0.5)
        assert pred.nu_sup == pytest.approx(want)
        pred = family_rate(FamilyCase.REGULARIZED, theta=0.5, p_prime=5.0, m=0.9)
        want = theoretical_rate(0.9, max(1.0, 5.0 / 2.0 - 1.0 - 0.9), 0.5)
        assert pred.nu_sup == pytest.approx(want)

    @pytest.mark.parametrize("p_prime, m, nu", [
        # no m: the sup theta / (1 + (1 - theta) max(p' - 4, 0)), at theta = 0.5
        (3.0, None, 0.5),
        (4.0, None, 0.5),
        (4.5, None, 0.4),
        # m = 0.5: the master formula at alpha = m, beta = max(p' - 4, p'/2 - 1 - m)
        (3.0, 0.5, theoretical_rate(0.5, 0.0, 0.5)),
        (4.0, 0.5, theoretical_rate(0.5, 0.5, 0.5)),
        (4.5, 0.5, theoretical_rate(0.5, 0.75, 0.5)),
    ])
    def test_regularized_from_three(self, p_prime, m, nu):
        pred = family_rate(FamilyCase.REGULARIZED, theta=0.5, p_prime=p_prime, m=m)
        assert pred.nu_sup == nu and not pred.attained
        for bad in (0.0, 1.0):
            with pytest.raises(CaseNotApplicableError, match=r"requires m in \(0, 1\)"):
                family_rate(FamilyCase.REGULARIZED, theta=0.5, p_prime=p_prime, m=bad)

    def test_normalized_p_window(self):
        with pytest.raises(CaseNotApplicableError, match="normalized case needs p >= 1"):
            family_rate(FamilyCase.NORMALIZED, theta=0.5, p=0.5)
        with pytest.raises(CaseNotApplicableError, match="normalized case needs q >= 1"):
            family_rate(FamilyCase.NORMALIZED, theta=0.5, q=0.5)

    @pytest.mark.parametrize("case", list(READS), ids=lambda case: case.value)
    def test_unread_parameter_rejected(self, case):
        # each was accepted and ignored; every parameter the case reads is taken
        reads = READS[case]
        family_rate(case, theta=0.5, **reads)
        for name in sorted({"p", "q", "p_prime", "q_prime", "m"} - set(reads)):
            message = f"^{case.value} does not read {name}$"
            with pytest.raises(CaseNotApplicableError, match=message):
                family_rate(case, theta=0.5, **reads, **{name: 2.5})

    @pytest.mark.parametrize("case", list(READS), ids=lambda case: case.value)
    def test_every_case_through_the_master_formula(self, case, monkeypatch):
        # nine return statements wrote nu out and two called theoretical_rate;
        # every case's exponent is the master formula at the case's window
        calls = []

        def spy(alpha, beta, theta):
            calls.append(theoretical_rate(alpha, beta, theta))
            return calls[-1]

        monkeypatch.setattr(rates, "theoretical_rate", spy)
        # m given, and m = None: the open supremum of the cases that read m
        for reads in (READS[case], READS[case] | {"m": None}):
            for theta in (0.3, 1.0):
                calls.clear()
                pred = family_rate(case, theta=theta, **reads)
                assert len(calls) == 1 and pred.nu_sup == calls[0]

    def test_unknown_case_rejected(self):
        with pytest.raises(CaseNotApplicableError, match="unknown case"):
            family_rate("regularized", theta=0.5, p_prime=3.0)

    def test_regularized_window(self):
        with pytest.raises(CaseNotApplicableError):
            family_rate(FamilyCase.REGULARIZED, theta=0.5, p_prime=1.5)
        with pytest.raises(CaseNotApplicableError):
            family_rate(FamilyCase.REGULARIZED, theta=0.5, p_prime=2.0, p=0.5)

    def test_biased_infinity(self):
        pred = family_rate(FamilyCase.BIASED_INFINITY, theta=1.0)
        assert pred.nu_sup == pytest.approx(0.5) and not pred.attained
        pred = family_rate(FamilyCase.BIASED_INFINITY, theta=0.5, m=0.25)
        assert pred.nu_sup == pytest.approx(0.125) and not pred.attained
        with pytest.raises(CaseNotApplicableError):
            family_rate(FamilyCase.BIASED_INFINITY, theta=0.5, m=0.75)

    @pytest.mark.parametrize("name", ["theta", "p", "q", "p_prime", "q_prime", "m"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, name, bad):
        # q = inf passed the q >= 2 window and gave nu = nan
        args = {"theta": 1.0, "p": 3.0, "q": 3.0} | {name: bad}
        with pytest.raises(CaseNotApplicableError, match="finite"):
            family_rate(FamilyCase.VARIATIONAL_DEGENERATE, **args)

    def test_theta_window(self):
        with pytest.raises(CaseNotApplicableError):
            family_rate(FamilyCase.NORMALIZED, theta=1.0001)
        with pytest.raises(CaseNotApplicableError):
            family_rate(FamilyCase.NORMALIZED, theta=0.0)
