import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab import (
    C1Params,
    Family,
    OperatorSpec,
    PerturbationAxis,
    SingularGradientError,
    c1_certify,
    c1_gap,
    perturb_spec,
)
from plaplab.operators import (diffusion_matrix, rank_one_coeff_arrays, rank_one_coeffs,
                               sqrt_matrix)


def largest_eigenvalue(spec, r2):
    """Closed-form largest eigenvalue max(s, s + c) at |xi|^2 = r2."""
    s, c = rank_one_coeffs(spec, r2)
    return max(s, s + c)


def c1_gap_dense(spec_a, spec_b, xi):
    """Eigensolver reference for ``c1_gap``."""
    d = sqrt_matrix(spec_a, xi) - sqrt_matrix(spec_b, xi)
    return float(np.max(np.abs(np.linalg.eigvalsh(d))))


def random_spec(rng):
    fam = rng.integers(0, 6)
    if fam == 0:
        return OperatorSpec.normalized(rng.uniform(1.0, 6.0))
    if fam == 1:
        return OperatorSpec.variational(rng.uniform(1.01, 6.0))
    if fam == 2:
        return OperatorSpec.general_pq(rng.uniform(1.01, 6.0), rng.uniform(1.01, 6.0))
    if fam == 3:
        return OperatorSpec.regularized_pq(rng.uniform(1.0, 6.0), rng.uniform(2.0, 6.0),
                                           rng.uniform(0.0, 2.0))
    if fam == 4:
        return OperatorSpec.biased_infinity(rng.uniform(-2.0, 2.0))
    return OperatorSpec.biased_infinity_regularized(rng.uniform(-2.0, 2.0),
                                                    rng.uniform(0.0, 1.0),
                                                    rng.uniform(0.0, 1.0))


class TestConstruction:
    def test_parameter_windows_rejected(self):
        with pytest.raises(ValueError):
            OperatorSpec.normalized(0.5)
        with pytest.raises(ValueError):
            OperatorSpec.variational(1.0)
        with pytest.raises(ValueError):
            OperatorSpec.general_pq(2.0, 1.0)
        with pytest.raises(ValueError):
            OperatorSpec.regularized_pq(2.0, 1.5, 0.1)
        with pytest.raises(ValueError):
            OperatorSpec.regularized_pq(2.0, 2.0, -0.1)
        with pytest.raises(ValueError):
            OperatorSpec.biased_infinity_regularized(1.0, -0.1, 0.0)
        with pytest.raises(ValueError):
            OperatorSpec.normalized(3.0, a=1.0)
        with pytest.raises(ValueError):
            OperatorSpec.biased_infinity(1.0, eps2=0.1)

    # the fields each family reads, with a valid non-default value for each
    READS = {
        Family.NORMALIZED: {"p": 3.0},
        Family.VARIATIONAL: {"p": 3.0},
        Family.GENERAL_PQ: {"p": 3.0, "p_prime": 2.5},
        Family.REGULARIZED_PQ: {"p": 3.0, "p_prime": 2.5, "eps": 0.5},
        Family.BIASED_INFINITY: {"a": 0.5},
        Family.BIASED_INFINITY_REGULARIZED: {"a": 0.5, "eps1": 0.5, "eps2": 0.5},
    }
    ALL_FIELDS = {"p": 3.0, "p_prime": 2.5, "eps": 0.5, "eps1": 0.5, "eps2": 0.5, "a": 0.5}

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_unread_fields_must_keep_their_default(self, family):
        # a field the family does not read was silently ignored before, so
        # variational(p=3, p_prime=5) was variational(3) under another name
        reads = self.READS[family]
        OperatorSpec(family, **reads)
        for name, value in self.ALL_FIELDS.items():
            if name in reads:
                continue
            with pytest.raises(ValueError, match=f"{family.value} does not read {name}"):
                OperatorSpec(family, **reads, **{name: value})
            default = getattr(OperatorSpec(family), name)
            assert OperatorSpec(family, **reads, **{name: default}) == OperatorSpec(family, **reads)

    def test_variational_reads_only_p(self):
        assert OperatorSpec.variational(3.0) == OperatorSpec(Family.VARIATIONAL, p=3.0)
        member = perturb_spec(OperatorSpec.variational(3.0), PerturbationAxis.P, 0.25)
        assert member == OperatorSpec.variational(3.25)
        assert member.growth_exponent == 3.25

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, bad):
        # NaN passed every window check; a NaN eps or eps1 also read as
        # "not everywhere defined" and picked the singular-gradient policy
        for build in (lambda: OperatorSpec.normalized(bad),
                      lambda: OperatorSpec.general_pq(3.0, bad),
                      lambda: OperatorSpec.regularized_pq(1.0, 2.0, bad),
                      lambda: OperatorSpec.biased_infinity(a=bad),
                      lambda: OperatorSpec.biased_infinity_regularized(0.5, bad, 0.1),
                      lambda: OperatorSpec.biased_infinity_regularized(0.5, 0.1, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                build()

    def test_regularized_at_zero_eps_matches_general(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.uniform(1.01, 5.0)
            pp = rng.uniform(2.0, 5.0)
            xi = rng.normal(size=2) * 10.0 ** rng.uniform(-2, 2)
            a = diffusion_matrix(OperatorSpec.regularized_pq(p, pp, 0.0), xi)
            b = diffusion_matrix(OperatorSpec.general_pq(p, pp), xi)
            np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_regularized_form_of_each_family(self):
        # the eps-regularized form a singular member takes is the regularized
        # member of its own family, at p'_eff = growth exponent
        r2 = np.array([0.0, 1e-6, 0.3, 4.0])
        eps = 0.2
        pairs = (
            (OperatorSpec.normalized(3.0), OperatorSpec.regularized_pq(3.0, 2.0, eps)),
            (OperatorSpec.general_pq(2.5, 3.5), OperatorSpec.regularized_pq(2.5, 3.5, eps)),
            (OperatorSpec.biased_infinity(1.0),
             OperatorSpec.biased_infinity_regularized(0.0, eps, 0.0)),
        )
        for spec, reg in pairs:
            got = rank_one_coeff_arrays(spec, r2, eps=eps)
            for g, want in zip(got, rank_one_coeff_arrays(reg, r2)):  # s may be a float
                np.testing.assert_array_equal(g, want)
        # p' < 2 has no regularized_pq member; check the table's formula
        s, c = rank_one_coeff_arrays(OperatorSpec.variational(1.5), r2, eps=eps)
        w = r2 + eps * eps
        np.testing.assert_allclose(s, w ** -0.25, rtol=1e-15)
        np.testing.assert_allclose(c, -0.5 * s * r2 / w, rtol=1e-15)

    @pytest.mark.parametrize("p", [1.3, 4.9])
    @pytest.mark.parametrize("pp", [2.0, 3.5])
    def test_unregularized_c_is_exactly_p_minus_2_times_s(self, p, pp):
        # at eps = 0 the coefficient must be the same multiple of s at every
        # node; the regularized form s (p - 2) r2 / w with w = r2 is off from
        # (p - 2) s by up to one ulp
        r2 = np.random.default_rng(7).uniform(1e-4, 10.0, 100_000)
        s, c = rank_one_coeff_arrays(OperatorSpec.regularized_pq(p, pp, 0.0), r2)
        np.testing.assert_array_equal(s, r2 ** ((pp - 2.0) / 2.0))
        np.testing.assert_array_equal(c, (p - 2.0) * s)

    @pytest.mark.parametrize("spec", [
        OperatorSpec.regularized_pq(1.0, 2.0, 0.05),
        OperatorSpec.regularized_pq(3.7, 2.0, 0.3),
        OperatorSpec.biased_infinity_regularized(0.5, 0.1, 0.2),
        OperatorSpec.biased_infinity_regularized(0.0, 1e-3, 0.0),
    ])
    def test_scalar_s_members(self, spec):
        # s is the same at every r2, so it is one float; c is bitwise the
        # table formula, computed into out when given
        rng = np.random.default_rng(11)
        r2 = np.concatenate([[0.0], 10.0 ** rng.uniform(-8.0, 4.0, 10_000)])
        out = np.empty_like(r2)
        s, c = rank_one_coeff_arrays(spec, r2, out=out)
        assert type(s) is float and s == rank_one_coeffs(spec, 1.0)[0]
        assert c is out
        if spec.family is Family.REGULARIZED_PQ:
            w = r2 + spec.eps * spec.eps
            s_table = w ** ((spec.p_prime - 2.0) / 2.0)
            want = s_table * (spec.p - 2.0) * r2 / w
        else:
            want = r2 / (r2 + spec.eps1 * spec.eps1)
        np.testing.assert_array_equal(c, want)
        np.testing.assert_array_equal(rank_one_coeff_arrays(spec, r2)[1], want)

    def test_biased_regularized_at_zero_eps1_is_the_biased_table(self):
        # eps1 = 0 is singular: s = 0 and c = r2 / r2 = 1 at every r2 > 0, as
        # tables, since the singular-gradient policy writes its nodes into s
        r2 = 10.0 ** np.random.default_rng(12).uniform(-8.0, 4.0, 10_000)
        s, c = rank_one_coeff_arrays(OperatorSpec.biased_infinity_regularized(0.5, 0.0, 0.1), r2)
        np.testing.assert_array_equal(s, np.zeros_like(r2))
        np.testing.assert_array_equal(c, r2 / r2)


class TestDiffusionMatrix:
    def test_normalized_p2_is_identity(self):
        A = diffusion_matrix(OperatorSpec.normalized(2.0), [0.7, -0.3])
        np.testing.assert_allclose(A, np.eye(2), atol=1e-15)

    def test_variational_p3_unit_xi(self):
        A = diffusion_matrix(OperatorSpec.variational(3.0), [1.0, 0.0])
        np.testing.assert_allclose(A, np.diag([2.0, 1.0]), atol=1e-15)

    def test_regularized_identity_at_origin(self):
        A = diffusion_matrix(OperatorSpec.regularized_pq(1.0, 2.0, 1.0), [0.0, 0.0])
        np.testing.assert_allclose(A, np.eye(2), atol=1e-15)

    def test_biased_regularized_hand_value(self):
        spec = OperatorSpec.biased_infinity_regularized(0.0, 0.5, 0.0)
        A = diffusion_matrix(spec, [1.0, 0.0])
        np.testing.assert_allclose(A, np.diag([1.0 / 1.25 + 0.5, 0.5]), atol=1e-15)

    def test_negative_r2_rejected(self):
        with pytest.raises(ValueError, match="r2 must be >= 0"):
            rank_one_coeffs(OperatorSpec.normalized(3.0), -1.0)

    def test_scalar_xi_is_a_one_vector(self):
        a, b = OperatorSpec.variational(3.0), OperatorSpec.normalized(2.5)
        for build in (diffusion_matrix, sqrt_matrix):
            np.testing.assert_array_equal(build(a, 2.0), build(a, [2.0]))
            assert build(a, 2.0).shape == (1, 1)
        assert c1_gap(a, b, 2.0) == c1_gap(a, b, [2.0])

    def test_singular_families_reject_zero_gradient(self):
        for spec in (OperatorSpec.normalized(3.0), OperatorSpec.variational(1.5),
                     OperatorSpec.general_pq(2.0, 3.0), OperatorSpec.biased_infinity(),
                     OperatorSpec.regularized_pq(2.0, 3.0, 0.0),
                     OperatorSpec.biased_infinity_regularized(1.0, 0.0, 0.1)):
            with pytest.raises(SingularGradientError):
                diffusion_matrix(spec, [0.0, 0.0])

    def test_psd_and_equivariance_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            spec = random_spec(rng)
            n = int(rng.integers(1, 4))
            xi = rng.normal(size=n)
            if np.linalg.norm(xi) == 0:
                continue
            xi *= 10.0 ** rng.uniform(-3, 3) / np.linalg.norm(xi)
            A = diffusion_matrix(spec, xi)
            norm = np.linalg.norm(A, 2)
            assert np.min(np.linalg.eigvalsh(A)) >= -1e-12
            # rotational equivariance A(R xi) = R A(xi) R^T
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            lhs = diffusion_matrix(spec, q @ xi)
            rhs = q @ A @ q.T
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * (1.0 + norm)


class TestSqrtMatrix:
    def test_normalized_p5(self):
        S = sqrt_matrix(OperatorSpec.normalized(5.0), [1.0, 0.0])
        np.testing.assert_allclose(S, np.diag([2.0, 1.0]), atol=1e-15)

    def test_normalized_p2_identity(self):
        S = sqrt_matrix(OperatorSpec.normalized(2.0), [0.3, 0.4])
        np.testing.assert_allclose(S, np.eye(2), atol=1e-15)

    def test_variational_p4(self):
        S = sqrt_matrix(OperatorSpec.variational(4.0), [2.0, 0.0])
        np.testing.assert_allclose(S, np.diag([2.0 * math.sqrt(3.0), 2.0]), atol=1e-14)

    def test_square_root_identity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            spec = random_spec(rng)
            n = int(rng.integers(1, 4))
            xi = rng.normal(size=n)
            if np.linalg.norm(xi) == 0:
                continue
            xi *= 10.0 ** rng.uniform(-3, 3) / np.linalg.norm(xi)
            A = diffusion_matrix(spec, xi)
            S = sqrt_matrix(spec, xi)
            err = np.linalg.norm(S @ S - A, 2)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(A, 2))


class TestC1Gap:
    def test_identical_specs_zero(self):
        spec = OperatorSpec.variational(2.5)
        assert c1_gap(spec, spec, [0.3, 0.4]) == 0.0

    def test_normalized_p3_vs_p2(self):
        g = c1_gap(OperatorSpec.normalized(3.0), OperatorSpec.normalized(2.0), [1.0, 0.0])
        assert abs(g - (math.sqrt(2.0) - 1.0)) < 1e-14

    def test_variational_p4_vs_p2(self):
        g = c1_gap(OperatorSpec.variational(4.0), OperatorSpec.variational(2.0), [2.0, 0.0])
        assert abs(g - (2.0 * math.sqrt(3.0) - 1.0)) < 1e-14

    def test_symmetric_and_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = random_spec(rng), random_spec(rng)
            n = int(rng.integers(1, 4))
            xi = rng.normal(size=n)
            if np.linalg.norm(xi) < 1e-12:
                continue
            g1 = c1_gap(a, b, xi)
            g2 = c1_gap(b, a, xi)
            assert g1 == g2
            scale = 1.0 + max(np.linalg.norm(sqrt_matrix(a, xi), 2),
                              np.linalg.norm(sqrt_matrix(b, xi), 2))
            assert abs(g1 - c1_gap_dense(a, b, xi)) <= 1e-12 * scale

    def test_zero_iff_sqrts_coincide(self):
        a = OperatorSpec.variational(3.0)
        b = OperatorSpec.general_pq(3.0, 3.0)  # same member, different label
        xi = np.array([0.5, -1.0])
        assert c1_gap(a, b, xi) <= 1e-15
        c = OperatorSpec.general_pq(3.2, 3.0)
        assert c1_gap(a, c, xi) > 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            c1_gap(OperatorSpec.normalized(3.0), OperatorSpec.normalized(2.0),
                   [1.0, 0.0, 0.0, 0.0])


class TestCertify:
    def test_normalized_passes_beta0(self):
        report = c1_certify(
            OperatorSpec.normalized(3.0), PerturbationAxis.P,
            [1e-1, 1e-2, 1e-3], np.geomspace(1e-3, 1e3, 13),
            C1Params(alpha=1.0, beta=0.0, c_A=1.0),
        )
        assert report.passed
        # gap = sqrt(2+eps) - sqrt(2) <= eps/(2 sqrt 2); denominator is 2
        assert report.max_ratio <= 0.25

    def test_zero_constant_fails_for_distinct_specs(self):
        report = c1_certify(
            OperatorSpec.normalized(3.0), PerturbationAxis.P,
            [1e-2], [1.0], C1Params(alpha=1.0, beta=0.0, c_A=0.0),
        )
        assert not report.passed

    def test_variational_beta_window(self):
        mags = np.geomspace(1e-3, 1e3, 25)
        eps = [1e-1, 1e-2, 1e-3, 1e-4]
        base = OperatorSpec.variational(3.0)
        good = c1_certify(base, PerturbationAxis.P, eps, mags,
                          C1Params(alpha=1.0, beta=0.5, c_A=10.0))
        assert good.passed
        bad = c1_certify(base, PerturbationAxis.P, eps, mags,
                         C1Params(alpha=1.0, beta=0.0, c_A=10.0))
        assert not bad.passed
        assert np.linalg.norm(bad.worst_xi) > 1e2

    def test_dimension_validated(self):
        for dim in (0, 4):
            with pytest.raises(ValueError):
                c1_certify(OperatorSpec.normalized(3.0), PerturbationAxis.P, [1e-2], [1.0],
                           C1Params(alpha=1.0, beta=0.0, c_A=1.0), dim=dim)

    def test_candidate_window_validation(self):
        with pytest.raises(ValueError):
            C1Params(alpha=1.0, beta=-0.5, c_A=1.0, k=4.0)  # needs beta > -1/3
        C1Params(alpha=1.0, beta=-0.3, c_A=1.0, k=4.0)

    @pytest.mark.parametrize("name, bad, message", [
        ("alpha", 0.0, "alpha must be > 0"),
        ("alpha", -1.0, "alpha must be > 0"),
        ("c_A", -0.5, "c_A must be >= 0"),
        ("k", 2.0, "k must be > 2"),
        ("k", 1.5, "k must be > 2"),
    ])
    def test_candidate_parameter_windows(self, name, bad, message):
        with pytest.raises(ValueError, match=message):
            C1Params(**({"alpha": 1.0, "beta": 0.5, "c_A": 10.0, "k": 4.0} | {name: bad}))
        assert C1Params(alpha=1.0, beta=0.5, c_A=0.0).c_A == 0.0

    def test_empty_eps_list_rejected(self):
        # an empty iterator passed the check and then raised a TypeError
        for empty in ([], iter([])):
            with pytest.raises(ValueError, match="eps list must be nonempty"):
                c1_certify(OperatorSpec.normalized(3.0), PerturbationAxis.P, empty, [1.0],
                           C1Params(alpha=1.0, beta=0.0, c_A=1.0))

    def test_eps_array_certified_as_a_list(self):
        # an array raised numpy's "truth value of an array is ambiguous"
        args = (OperatorSpec.normalized(3.0), PerturbationAxis.P)
        rest = ([0.1, 1.0, 10.0], C1Params(alpha=1.0, beta=0.5, c_A=10.0))
        want = c1_certify(*args, [0.1, 0.01], *rest)
        for eps in (np.array([0.1, 0.01]), iter([0.1, 0.01])):
            got = c1_certify(*args, eps, *rest)
            assert (got.max_ratio, got.worst_eps, got.passed) == (
                want.max_ratio, want.worst_eps, want.passed)
            np.testing.assert_array_equal(got.worst_xi, want.worst_xi)

    @pytest.mark.parametrize("name", ["alpha", "beta", "c_A", "k"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_candidate_rejected(self, name, bad):
        # a NaN beta passed the window and read PASS; an infinite c_A passed anything
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            C1Params(**({"alpha": 1.0, "beta": 0.5, "c_A": 10.0, "k": 4.0} | {name: bad}))

    def test_nan_ratio_fails(self):
        # eps^alpha underflows to 0 against a zero gap: 0/0 at every magnitude,
        # which left no worst point and raised a TypeError
        with np.errstate(invalid="ignore"):
            report = c1_certify(OperatorSpec.normalized(3.0), PerturbationAxis.P, [1e-200],
                                [0.5, 1.0], C1Params(alpha=2.0, beta=0.5, c_A=10.0))
        assert math.isnan(report.max_ratio) and not report.passed
        assert report.worst_eps == 1e-200

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_xi_magnitude_rejected(self, bad):
        with pytest.raises(ValueError, match="finite positive"):
            c1_certify(OperatorSpec.normalized(3.0), PerturbationAxis.P, [1e-2], [1.0, bad],
                       C1Params(alpha=1.0, beta=0.0, c_A=1.0))


class TestPerturb:
    def test_axes(self):
        s = perturb_spec(OperatorSpec.normalized(3.0), PerturbationAxis.P, 0.25)
        assert s.p == 3.25
        s = perturb_spec(OperatorSpec.regularized_pq(1.0, 2.0, 0.0),
                         PerturbationAxis.EPS, 0.125)
        assert s.eps == 0.125
        s = perturb_spec(OperatorSpec.biased_infinity_regularized(1.0, 0.0, 0.0),
                         PerturbationAxis.EPS1_EPS2, 0.1)
        assert s.eps1 == 0.1 and s.eps2 == 0.1
        for base in (OperatorSpec.general_pq(3.0, 2.5),
                     OperatorSpec.regularized_pq(3.0, 2.5, 0.0)):
            s = perturb_spec(base, PerturbationAxis.P_PRIME, 0.25)
            assert s.p_prime == 2.75 and s.p == 3.0
        for base in (OperatorSpec.normalized(3.0), OperatorSpec.variational(3.0)):
            with pytest.raises(ValueError):
                perturb_spec(base, PerturbationAxis.P_PRIME, 0.25)
        with pytest.raises(ValueError):
            perturb_spec(OperatorSpec.normalized(3.0), PerturbationAxis.EPS, 0.1)
        with pytest.raises(ValueError):
            perturb_spec(OperatorSpec.regularized_pq(1.0, 2.0, 0.5),
                         PerturbationAxis.EPS, 0.1)
        for biased in (OperatorSpec.biased_infinity(0.0),
                       OperatorSpec.biased_infinity_regularized(1.0, 0.0, 0.0)):
            with pytest.raises(ValueError):
                perturb_spec(biased, PerturbationAxis.P, 0.1)

    @pytest.mark.parametrize("axis", list(PerturbationAxis), ids=lambda a: a.value)
    @pytest.mark.parametrize("value", [0.0, -0.1])
    def test_nonpositive_value_rejected(self, axis, value):
        base = (OperatorSpec.biased_infinity_regularized(1.0, 0.0, 0.0)
                if axis is PerturbationAxis.EPS1_EPS2 else OperatorSpec.regularized_pq(3.0, 2.5, 0.0))
        with pytest.raises(ValueError, match="perturbation value must be > 0"):
            perturb_spec(base, axis, value)

    @pytest.mark.parametrize("axis", list(PerturbationAxis), ids=lambda a: a.value)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, axis, value):
        # NaN passed the > 0 check and was reported against the perturbed
        # field ("p must be finite, got nan"), which nobody set
        base = (OperatorSpec.biased_infinity_regularized(1.0, 0.0, 0.0)
                if axis is PerturbationAxis.EPS1_EPS2 else OperatorSpec.regularized_pq(3.0, 2.5, 0.0))
        with pytest.raises(ValueError, match=f"^perturbation value must be finite, got {value}$"):
            perturb_spec(base, axis, value)

    def test_eps1_eps2_axis_needs_its_family_at_zero(self):
        for base in (OperatorSpec.regularized_pq(1.0, 2.0, 0.0), OperatorSpec.biased_infinity(1.0),
                     OperatorSpec.normalized(3.0)):
            with pytest.raises(ValueError, match="eps1/eps2 perturbation needs"):
                perturb_spec(base, PerturbationAxis.EPS1_EPS2, 0.1)
        for eps1, eps2 in ((0.1, 0.0), (0.0, 0.1)):
            base = OperatorSpec.biased_infinity_regularized(1.0, eps1, eps2)
            with pytest.raises(ValueError, match="base member at eps1 = eps2 = 0"):
                perturb_spec(base, PerturbationAxis.EPS1_EPS2, 0.1)


def table_facts(spec):
    """(regularization, growth_exponent, everywhere_defined), written from the
    table of the ``operators`` module docstring, not from its code."""
    family = spec.family
    reg = {Family.REGULARIZED_PQ: spec.eps,
           Family.BIASED_INFINITY_REGULARIZED: spec.eps1}.get(family, 0.0)
    growth = {Family.VARIATIONAL: spec.p, Family.GENERAL_PQ: spec.p_prime,
              Family.REGULARIZED_PQ: spec.p_prime}.get(family, 2.0)
    return reg, growth, reg > 0


def spec_facts(spec):
    return spec.regularization, spec.growth_exponent, spec.everywhere_defined


class TestDerivedFacts:
    # one member per family, and each regularized family at zero and above
    BUILT = [OperatorSpec.normalized(3.0), OperatorSpec.variational(1.5),
             OperatorSpec.general_pq(3.0, 1.5), OperatorSpec.regularized_pq(3.0, 4.0, 0.1),
             OperatorSpec.regularized_pq(2.0, 2.5, 0.0), OperatorSpec.biased_infinity(0.5),
             OperatorSpec.biased_infinity_regularized(0.5, 0.1, 0.1),
             OperatorSpec.biased_infinity_regularized(0.5, 0.0, 0.0)]
    # every (base, axis) a family admits
    PERTURBED = [(OperatorSpec.normalized(3.0), PerturbationAxis.P),
                 (OperatorSpec.variational(1.5), PerturbationAxis.P),
                 (OperatorSpec.general_pq(3.0, 1.5), PerturbationAxis.P),
                 (OperatorSpec.general_pq(3.0, 1.5), PerturbationAxis.P_PRIME),
                 (OperatorSpec.regularized_pq(2.0, 2.5, 0.0), PerturbationAxis.P),
                 (OperatorSpec.regularized_pq(2.0, 2.5, 0.0), PerturbationAxis.P_PRIME),
                 (OperatorSpec.regularized_pq(2.0, 2.5, 0.0), PerturbationAxis.EPS),
                 (OperatorSpec.biased_infinity_regularized(0.5, 0.0, 0.0),
                  PerturbationAxis.EPS1_EPS2)]

    def members(self):
        """Every built member, each after ``dataclasses.replace`` of one field it
        reads, and each perturbed member."""
        yield from self.BUILT
        for spec in self.BUILT:
            for name in TestConstruction.READS[spec.family]:
                yield dataclasses.replace(spec, **{name: getattr(spec, name) + 0.25})
        for base, axis in self.PERTURBED:
            yield perturb_spec(base, axis, 0.125)

    def test_facts_are_the_docstring_table(self):
        members = list(self.members())
        assert len(members) == 8 + 17 + 8
        for spec in members:
            assert spec_facts(spec) == table_facts(spec), spec

    def test_facts_are_no_fields(self):
        names = [f.name for f in dataclasses.fields(OperatorSpec)]
        assert names == ["family", "p", "p_prime", "eps", "eps1", "eps2", "a"]

    @pytest.mark.parametrize("name", ["regularization", "growth_exponent",
                                      "everywhere_defined"])
    def test_facts_are_read_only(self, name):
        for spec in self.BUILT:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=6.0),
    mag=st.floats(min_value=1e-3, max_value=1e3),
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_sqrt_identity_property_normalized(p, mag, angle):
    spec = OperatorSpec.normalized(p)
    xi = mag * np.array([math.cos(angle), math.sin(angle)])
    A = diffusion_matrix(spec, xi)
    S = sqrt_matrix(spec, xi)
    assert np.linalg.norm(S @ S - A, 2) <= 1e-10 * (1.0 + np.linalg.norm(A, 2))


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(min_value=1.05, max_value=5.0),
    pp=st.floats(min_value=1.05, max_value=5.0),
    mag=st.floats(min_value=1e-3, max_value=1e3),
)
def test_largest_eigenvalue_matches_dense(p, pp, mag):
    spec = OperatorSpec.general_pq(p, pp)
    xi = np.array([mag, 0.0])
    lam = largest_eigenvalue(spec, float(xi @ xi))
    dense = np.max(np.linalg.eigvalsh(diffusion_matrix(spec, xi)))
    assert lam == pytest.approx(dense, rel=1e-12, abs=1e-300)
