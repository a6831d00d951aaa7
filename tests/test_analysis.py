"""Contraction constants: closed forms, quadrature, bounds, estimates."""
import math

import numpy as np
import pytest

from infbsde import (CEstimate, ContractionInputs, InvalidP, RngStream,
                     SchemeParams, brownian_c_infinity, brownian_cp_constants,
                     contraction_report, estimate_c_constants,
                     gaussian_radial_moment, kappa_infinity, kappa_p,
                     lipschitz_shift, problem_by_name,
                     simplified_contraction_check)


class TestLipschitzShift:
    def test_examples(self):
        # K = mu = a = 2: the shift cancels exactly
        assert lipschitz_shift(2.0, 2.0, 2.0) == 0.0
        assert lipschitz_shift(3.0, 1.0, 2.0) == 3.0
        assert lipschitz_shift(1.0, 0.0, 2.0) == pytest.approx(math.sqrt(5))

    def test_no_monotonicity_keeps_full_constant(self):
        assert lipschitz_shift(2.0, 0.0, 0.0) == 2.0

    def test_excessive_monotonicity_rejected(self):
        with pytest.raises(ValueError):
            lipschitz_shift(1.0, 3.0, 2.0)


class TestBrownianKernelNorms:
    def test_closed_forms(self):
        c, ct = brownian_c_infinity(2.0, 2.0, dim=1)
        assert c == 0.5
        assert ct == pytest.approx(1.0, rel=1e-14)
        assert brownian_c_infinity(2.0, 2.0, 2)[1] == pytest.approx(math.pi / 2)
        assert brownian_c_infinity(2.0, 2.0, 3)[1] == pytest.approx(2.0)

    def test_gradient_norm_scales_inverse_sqrt_rate(self):
        _, ct2 = brownian_c_infinity(2.0, 2.0, 1)
        _, ct8 = brownian_c_infinity(2.0, 8.0, 1)
        assert ct8 == pytest.approx(ct2 / 2)


class TestKappaInfinity:
    def test_full_example(self):
        inputs = ContractionInputs(lip_y=2.0, lip_z=0.5, monotonicity=2.0,
                                   discount_y=2.0, discount_z=2.0,
                                   c_inf=0.5, c_tilde_inf=1.0)
        assert kappa_infinity(inputs) == pytest.approx(0.5590169943749475,
                                                       rel=1e-15)

    def test_y_only_variant(self):
        inputs = ContractionInputs(lip_y=1.0, monotonicity=1.0,
                                   discount_y=2.0, c_inf=0.5,
                                   depends_on_z=False)
        assert kappa_infinity(inputs) == pytest.approx(0.5, rel=1e-15)

    def test_experiment_parameters_not_contractive(self):
        inputs = ContractionInputs(lip_y=3.0, lip_z=0.5, monotonicity=1.0,
                                   discount_y=2.0, discount_z=2.0,
                                   c_inf=0.5, c_tilde_inf=1.0)
        assert kappa_infinity(inputs) == pytest.approx(3.3541019662496847,
                                                       rel=1e-14)

    def test_monotone_in_norms_and_lip_z(self):
        gen = np.random.default_rng(0)
        for _ in range(100):
            base = dict(lip_y=gen.uniform(0, 3), lip_z=gen.uniform(0, 2),
                        monotonicity=0.0, discount_y=gen.uniform(0.5, 3),
                        discount_z=gen.uniform(0.5, 3),
                        c_inf=gen.uniform(0, 2), c_tilde_inf=gen.uniform(0, 2))
            k0 = kappa_infinity(ContractionInputs(**base))
            for name in ("c_inf", "c_tilde_inf", "lip_z"):
                bumped = dict(base)
                bumped[name] += gen.uniform(0, 1)
                assert kappa_infinity(ContractionInputs(**bumped)) >= k0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            ContractionInputs(lip_y=-1.0)


class TestKappaP:
    def test_hand_substitution(self):
        # p=2, theta=a, unit integral constants, no z dependence in the max
        inputs = ContractionInputs(lip_y=1.0, lip_z=0.0, monotonicity=0.0,
                                   discount_y=2.0, discount_z=3.0,
                                   exp_rate=2.0, c_p=1.0, c_tilde_p=1.0,
                                   c_tilde_p_bis=1.0)
        # kappa_2^2 = (1/a)(1/a) S_a^2 + S_at^2 = 5/4 + 10
        assert kappa_p(inputs, 2.0) == pytest.approx(math.sqrt(11.25),
                                                     rel=1e-14)

    def test_y_only_formula(self):
        inputs = ContractionInputs(lip_y=1.0, monotonicity=1.0,
                                   discount_y=2.0, exp_rate=1.5,
                                   depends_on_z=False, c_p=2.0)
        expected = (1 / 1.5) ** 0.5 * (1 / 2.5) ** 0.5 * 2.0
        assert kappa_p(inputs, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_invalid_exponent(self):
        inputs = ContractionInputs(lip_y=1.0, c_p=1.0, c_tilde_p=1.0,
                                   c_tilde_p_bis=1.0)
        with pytest.raises(InvalidP):
            kappa_p(inputs, 1.0)
        low = ContractionInputs(lip_y=1.0, discount_y=0.5, exp_rate=1.5,
                                c_p=1.0, c_tilde_p=1.0, c_tilde_p_bis=1.0)
        with pytest.raises(InvalidP):
            kappa_p(low, 2.0)

    def test_missing_constants_rejected(self):
        with pytest.raises(ValueError):
            kappa_p(ContractionInputs(lip_y=1.0), 2.0)
        with pytest.raises(ValueError):
            kappa_p(ContractionInputs(lip_y=1.0, depends_on_z=False), 2.0)


class TestGaussianRadialMoment:
    def test_closed_forms(self):
        assert gaussian_radial_moment(2, 1) == pytest.approx(
            2 + 2 * math.sqrt(2 / math.pi), rel=1e-10)
        assert gaussian_radial_moment(3, 1) == pytest.approx(
            4 + 5 * math.sqrt(2 / math.pi), rel=1e-10)
        assert gaussian_radial_moment(2, 2) == pytest.approx(
            3 + 2 * math.sqrt(math.pi / 2), rel=1e-10)

    def test_zeroth_moment_is_one(self):
        for dim in (1, 2, 3, 5):
            assert gaussian_radial_moment(0, dim) == pytest.approx(1.0,
                                                                   rel=1e-10)

    def test_large_exponents_stay_finite_and_monotone(self):
        vals = [gaussian_radial_moment(q, 3) for q in range(0, 21, 4)]
        assert all(np.isfinite(vals))
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestBrownianCp:
    def test_moment_closed_form(self):
        # p=2, growth 0, d=1, rates 1: exponent pr+d+1 = 2
        c2, ct2 = brownian_cp_constants(2.0, 0.0, 1, 1.0, 1.0)
        assert c2 == pytest.approx(2.2177868826024683, rel=1e-6)
        assert ct2 == pytest.approx(2.014765164109577, rel=1e-6)

    def test_growth_half_reproduces_cubed_moment(self):
        # growth 1/2 gives exponent 3: time weight (t v 1)^{3/2} against
        # e^{-t} and Gaussian moment E(1+|Z|)^3 = 4 + 5 sqrt(2/pi)
        c2, _ = brownian_cp_constants(2.0, 0.5, 1, 1.0, 1.0)
        assert c2 == pytest.approx(3.750834730342699, rel=1e-6)

    def test_fast_rate_limit(self):
        # as the rate grows the time integral collapses to (0 v 1) = 1
        c2, _ = brownian_cp_constants(2.0, 0.0, 1, 1e3, 1e3)
        ymom = gaussian_radial_moment(2, 1)
        assert c2**2 / ymom == pytest.approx(1.0, abs=0.01)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidP):
            brownian_cp_constants(1.0, 0.0, 1, 1.0, 1.0)

    def test_integrability_over_exponent_range(self):
        for growth in (0.0, 1.0, 4.0):
            c2, ct2 = brownian_cp_constants(2.0, growth, 3, 1.5, 1.5)
            assert np.isfinite(c2) and np.isfinite(ct2)
            assert c2 > 0 and ct2 > 0


class TestSimplifiedBound:
    def test_documented_example(self):
        bound, ok = simplified_contraction_check(3.0, 1.0, 0.5, 0.5, 1.0)
        assert bound == pytest.approx(4.4320003405823645, rel=1e-14)
        assert ok is False

    def test_zero_gap_zero_lip_z(self):
        bound, ok = simplified_contraction_check(2.0, 2.0, 0.0, 0.5, 1.0)
        assert bound == 0.0 and ok is True

    def test_homogeneous_in_kernel_norms(self):
        b1, _ = simplified_contraction_check(2.0, 1.0, 0.3, 0.5, 1.0)
        b2, _ = simplified_contraction_check(2.0, 1.0, 0.3, 1.0, 2.0)
        assert b2 == pytest.approx(2 * b1, rel=1e-14)

    def test_requires_dominating_lipschitz(self):
        with pytest.raises(ValueError):
            simplified_contraction_check(1.0, 2.0, 0.0, 0.5, 1.0)


class TestEstimateC:
    def test_brownian_closed_form_at_origin(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        params = SchemeParams(2.0, 2.0, 1.5, 1.5)
        est = estimate_c_constants(problem, params, 0.0,
                                   np.zeros((1, 1)), 100_000,
                                   rng=RngStream(20))
        assert isinstance(est, CEstimate)
        assert est.c_inf_se < 0.005 and est.c_tilde_inf_se < 0.01
        assert abs(est.c_inf - 0.5) < 4 * est.c_inf_se
        assert abs(est.c_tilde_inf - 1.0) < 4 * est.c_tilde_inf_se
        assert est.probe_argmax == (0, 0)

    def test_probe_max_over_points(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        params = SchemeParams(2.0, 2.0, 1.5, 1.5)
        probes = np.array([[0.0], [1.0], [-2.0]])
        est = estimate_c_constants(problem, params, 2.0, probes, 2000,
                                   rng=RngStream(21))
        assert est.c_inf > 0 and est.c_tilde_inf > 0
        assert 0 <= est.probe_argmax[0] < 3 and 0 <= est.probe_argmax[1] < 3

    def test_empty_probe_set_rejected(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        with pytest.raises(ValueError):
            estimate_c_constants(problem, SchemeParams(), 0.0,
                                 np.zeros((0, 1)), 10)

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_samples_rejected(self, m):
        # one sample has no standard error; it used to come back as nan
        problem = problem_by_name("arctan-const-sigma", 1)
        with pytest.raises(ValueError, match="at least 2"):
            estimate_c_constants(problem, SchemeParams(), 0.0,
                                 np.zeros((1, 1)), m)


class TestReport:
    def test_rows_and_statuses(self):
        inputs = ContractionInputs(lip_y=2.0, lip_z=0.5, monotonicity=2.0,
                                   discount_y=2.0, discount_z=2.0,
                                   exp_rate=1.5, gamma_rate=1.5,
                                   c_inf=0.5, c_tilde_inf=1.0,
                                   c_p=1.0, c_tilde_p=1.0, c_tilde_p_bis=1.0)
        rows = contraction_report(inputs, p=2.0)
        names = [r.name for r in rows]
        assert names[:5] == ["lip_y", "lip_z", "monotonicity", "discount_y",
                             "discount_z"]
        by_name = {r.name: r for r in rows}
        assert by_name["discount_y"].status == "ok"
        assert by_name["kappa_inf"].value == pytest.approx(0.5590169943749475)
        assert by_name["kappa_inf"].status == "contraction"
        # zero Lipschitz gap: the cheap bound coincides with kappa_inf here
        assert by_name["simplified_bound"].value == pytest.approx(
            by_name["kappa_inf"].value)
        assert by_name["simplified_bound"].status == "contraction"
        assert "kappa_p(p=2)" in by_name
        assert by_name["kappa_p(p=2)"].status in ("contraction",
                                                  "not a contraction")

    def test_invalid_p_becomes_message_row(self):
        inputs = ContractionInputs(lip_y=1.0, discount_y=0.5, exp_rate=1.5,
                                   c_inf=0.5, c_tilde_inf=1.0, c_p=1.0,
                                   c_tilde_p=1.0, c_tilde_p_bis=1.0)
        rows = contraction_report(inputs, p=2.0)
        row = {r.name: r for r in rows}["kappa_p(p=2)"]
        assert math.isnan(row.value)
        assert "exp_rate" in row.status or "p" in row.status

    def test_discount_below_rate_flagged(self):
        inputs = ContractionInputs(lip_y=1.0, discount_y=1.0, exp_rate=1.5,
                                   c_inf=0.5, c_tilde_inf=1.0)
        rows = contraction_report(inputs)
        assert "violated" in {r.name: r for r in rows}["discount_y"].status

    @pytest.mark.parametrize("discount, rate", [("discount_y", "exp_rate"),
                                                ("discount_z", "gamma_rate")])
    def test_discount_not_above_rate_fails(self, discount, rate):
        def statuses(**change):
            inputs = ContractionInputs(**{
                "lip_y": 2.0, "lip_z": 0.5, "monotonicity": 1.0,
                "discount_y": 2.0, "discount_z": 2.0, "exp_rate": 1.5,
                "gamma_rate": 1.5, "c_inf": 0.5, "c_tilde_inf": 1.0,
                **change})
            rows = contraction_report(inputs)
            return {r.name: r.status for r in rows}

        paper = statuses()
        assert paper["discount_y"] == paper["discount_z"] == "ok"
        # the inequality is strict: a discount equal to its rate fails
        failed = statuses(**{discount: 1.5})
        assert failed[discount] == f"violated: {discount} <= {rate}"
        other = "discount_z" if discount == "discount_y" else "discount_y"
        assert failed[other] == "ok"
