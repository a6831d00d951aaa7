"""Contraction constants: closed forms, quadrature, bounds, estimates."""
import math

import numpy as np
import pytest

from infbsde import (CEstimate, GeneratorSpec, InvalidP, NonFiniteValue,
                     NonPositiveRate, QuadratureFailure, RngStream,
                     SchemeParams, brownian_c_infinity, brownian_cp_constants,
                     contraction_report, estimate_c_constants,
                     gaussian_radial_moment, kappa_infinity, kappa_p,
                     lipschitz_shift, problem_by_name,
                     simplified_contraction_check)
from infbsde.analysis import _quad


def driver(lip_y, lip_z=0.0, monotonicity=0.0):
    """A generator that carries only the constants the formulas read."""
    return GeneratorSpec(dim_y=1, f=lambda x, y, z: y, lip_y=lip_y,
                         lip_z=lip_z, monotonicity=monotonicity)


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
        kappa = kappa_infinity(driver(2.0, 0.5, 2.0), SchemeParams(2.0, 2.0),
                               0.5, 1.0)
        assert kappa == pytest.approx(0.5590169943749475, rel=1e-15)

    def test_y_only_variant(self):
        # lip_z = 0: the driver does not depend on z, so c_tilde_inf drops out
        kappa = kappa_infinity(driver(1.0, 0.0, 1.0), SchemeParams(2.0),
                               0.5, 7.0)
        assert kappa == pytest.approx(0.5, rel=1e-15)

    def test_experiment_parameters_not_contractive(self):
        kappa = kappa_infinity(driver(3.0, 0.5, 1.0), SchemeParams(2.0, 2.0),
                               0.5, 1.0)
        assert kappa == pytest.approx(3.3541019662496847, rel=1e-14)

    def test_monotone_in_norms_and_lip_z(self):
        gen = np.random.default_rng(0)
        for _ in range(100):
            base = dict(lip_y=gen.uniform(0, 3), lip_z=gen.uniform(0, 2),
                        c_inf=gen.uniform(0, 2), c_tilde_inf=gen.uniform(0, 2))
            params = SchemeParams(gen.uniform(0.5, 3), gen.uniform(0.5, 3))

            def kappa(lip_y, lip_z, c_inf, c_tilde_inf):
                return kappa_infinity(driver(lip_y, lip_z), params, c_inf,
                                      c_tilde_inf)

            k0 = kappa(**base)
            for name in ("c_inf", "c_tilde_inf", "lip_z"):
                bumped = dict(base)
                bumped[name] += gen.uniform(0, 1)
                assert kappa(**bumped) >= k0


class TestKappaP:
    def test_hand_substitution(self):
        # p=2, theta=a, unit integral constants; lip_z = 1 keeps the joint
        # formula but stays below both shifts in the max
        params = SchemeParams(discount_y=2.0, discount_z=3.0, exp_rate=2.0)
        kappa = kappa_p(driver(1.0, 1.0), params, 2.0, 1.0, 1.0, 1.0)
        # kappa_2^2 = (1/a)(1/a) S_a^2 + S_at^2 = 5/4 + 10
        assert kappa == pytest.approx(math.sqrt(11.25), rel=1e-14)

    def test_y_only_formula(self):
        params = SchemeParams(discount_y=2.0, exp_rate=1.5)
        expected = (1 / 1.5) ** 0.5 * (1 / 2.5) ** 0.5 * 2.0
        assert kappa_p(driver(1.0, 0.0, 1.0), params, 2.0, 2.0) == \
            pytest.approx(expected, rel=1e-14)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidP):
            kappa_p(driver(1.0), SchemeParams(), 1.0, 1.0, 1.0, 1.0)
        low = SchemeParams(discount_y=0.5, exp_rate=1.5)
        with pytest.raises(InvalidP):
            kappa_p(driver(1.0), low, 2.0, 1.0, 1.0, 1.0)

    def test_missing_constants_rejected(self):
        # a driver that depends on z needs both gradient-side constants
        for missing in ((None, 1.0), (1.0, None)):
            with pytest.raises(ValueError):
                kappa_p(driver(1.0, 0.5), SchemeParams(), 2.0, 1.0, *missing)


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


NAN, INF = math.nan, math.inf
CP_ARGS = dict(p=2.0, growth_degree=0.0, dim=1, exp_rate=1.0, gamma_rate=1.0)


class TestBadInput:
    """Each bad argument is rejected by name instead of giving nan, 0, a
    negative norm or a raw math error."""

    @pytest.mark.parametrize("p", [NAN, 1.0, 0.5, INF])
    def test_exponent(self, p):
        with pytest.raises(InvalidP, match="p must"):
            brownian_cp_constants(**{**CP_ARGS, "p": p})
        with pytest.raises(InvalidP, match="p must"):
            kappa_p(driver(1.0), SchemeParams(), p, 1.0)

    @pytest.mark.parametrize("name, value", [
        ("growth_degree", -1.0), ("growth_degree", NAN),
        ("growth_degree", INF), ("dim", 0), ("dim", -1), ("dim", 1.5),
        ("exp_rate", 0.0), ("exp_rate", -1.0), ("exp_rate", NAN),
        ("exp_rate", INF), ("gamma_rate", 0.0), ("gamma_rate", -1.0),
        ("gamma_rate", NAN), ("gamma_rate", INF)])
    def test_cp_constants(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must"):
            brownian_cp_constants(**{**CP_ARGS, name: value})

    def test_cp_exponent_overflow(self):
        with pytest.raises(ValueError, match="overflows"):
            brownian_cp_constants(**{**CP_ARGS, "p": 1e200,
                                     "growth_degree": 1e200})

    @pytest.mark.parametrize("name, value", [
        ("discount_y", -1.0), ("discount_y", 0.0), ("discount_y", NAN),
        ("discount_y", INF), ("discount_z", -1.0), ("discount_z", 0.0),
        ("discount_z", NAN), ("discount_z", INF), ("dim", 0), ("dim", 2.0)])
    def test_c_infinity(self, name, value):
        args = dict(discount_y=1.0, discount_z=1.0, dim=1)
        with pytest.raises(ValueError, match=f"{name} must"):
            brownian_c_infinity(**{**args, name: value})

    @pytest.mark.parametrize("name, value", [
        ("discount_y", -1.0), ("discount_z", 0.0), ("exp_rate", -3.0),
        ("exp_rate", 0.0), ("gamma_rate", NAN), ("gamma_rate", INF)])
    def test_kappa_rates(self, name, value):
        with pytest.raises(NonPositiveRate, match=name):
            kappa_p(driver(1.0), SchemeParams(**{name: value}), 2.0, 1.0)
        with pytest.raises(NonPositiveRate, match=name):
            kappa_infinity(driver(1.0), SchemeParams(**{name: value}), 1.0,
                           1.0)

    def test_kappa_p_never_complex(self):
        # a negative discount over a negative rate once gave a complex kappa
        with pytest.raises(NonPositiveRate, match="discount_y, exp_rate"):
            kappa_p(driver(1.0), SchemeParams(discount_y=-1.0, exp_rate=-3.0),
                    2.0, 1.0)

    @pytest.mark.parametrize("name, value", [
        ("q", NAN), ("q", INF), ("q", -INF), ("dim", 0), ("dim", 1.5)])
    def test_radial_moment(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must"):
            gaussian_radial_moment(**{**dict(q=2.0, dim=1), name: value})

    @pytest.mark.parametrize("args, name", [
        ((2, 400, 1, 1, 1), "growth_degree=400"),
        ((2, 0, 400, 1, 1), "dim=400")])
    def test_cp_integrand_overflow(self, args, name):
        # the far quadrature nodes overflow t^(q/2) in a float
        with pytest.raises(QuadratureFailure, match=name):
            brownian_cp_constants(*args)

    @pytest.mark.parametrize("args, name", [((1000, 1), "q=1000"),
                                            ((2, 400), "dim=400")])
    def test_radial_moment_overflow(self, args, name):
        # (1 + s)^q at the far nodes, or gamma(dim / 2) in the normalisation
        with pytest.raises(QuadratureFailure, match=name):
            gaussian_radial_moment(*args)

    def test_non_finite_quadrature_fails(self, monkeypatch):
        from scipy import integrate

        with pytest.raises(QuadratureFailure, match="inf"):
            _quad(lambda t: INF, 0.0, 1.0)
        with pytest.warns(integrate.IntegrationWarning), \
                pytest.raises(QuadratureFailure, match="nan"):
            _quad(lambda t: NAN, 0.0, 1.0)
        # a finite value with a nan error estimate is no result either
        monkeypatch.setattr(integrate, "quad", lambda *a, **k: (1.0, NAN))
        with pytest.raises(QuadratureFailure, match="nan"):
            _quad(lambda t: 1.0, 0.0, 1.0)


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
                                   np.zeros((1, 1)), 100_000, None,
                                   RngStream(20))
        assert isinstance(est, CEstimate)
        assert est.c_inf_se < 0.005 and est.c_tilde_inf_se < 0.01
        assert abs(est.c_inf - 0.5) < 4 * est.c_inf_se
        assert abs(est.c_tilde_inf - 1.0) < 4 * est.c_tilde_inf_se

    def test_probe_max_over_points(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        params = SchemeParams(2.0, 2.0, 1.5, 1.5)
        probes = np.array([[0.0], [1.0], [-2.0]])
        est = estimate_c_constants(problem, params, 2.0, probes, 2000, None,
                                   RngStream(21))
        assert est.c_inf > 0 and est.c_tilde_inf > 0

    def test_brownian_degree_zero_runs_the_first_probe_only(self):
        # every probe's estimate has one law here, so the max over probes
        # would only add upward noise
        problem = problem_by_name("arctan-const-sigma", 1)
        params = SchemeParams(2.0, 2.0, 1.5, 1.5)
        probes = np.array([[0.0], [1.0], [-2.0]])
        est = estimate_c_constants(problem, params, 0.0, probes, 100_000,
                                   None, RngStream(22))
        assert est == estimate_c_constants(problem, params, 0.0, probes[:1],
                                           100_000, None, RngStream(22))
        # the estimate does not depend on where the probe is
        assert est == estimate_c_constants(problem, params, 0.0, probes[2:],
                                           100_000, None, RngStream(22))
        c_inf, c_tilde = brownian_c_infinity(2.0, 2.0, 1)
        assert abs(est.c_inf - c_inf) < 4 * est.c_inf_se
        assert abs(est.c_tilde_inf - c_tilde) < 4 * est.c_tilde_inf_se

    @pytest.mark.parametrize("bad", [0, np.random.default_rng(0)],
                             ids=["int", "generator"])
    def test_only_a_stream_accepted(self, bad):
        problem = problem_by_name("arctan-const-sigma", 1)
        with pytest.raises(TypeError):
            estimate_c_constants(problem, SchemeParams(), 0.0,
                                 np.zeros((1, 1)), 10, None, bad)

    def test_empty_probe_set_rejected(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        with pytest.raises(ValueError):
            estimate_c_constants(problem, SchemeParams(), 0.0,
                                 np.zeros((0, 1)), 10, None, RngStream(0))

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_samples_rejected(self, m):
        # one sample has no standard error; it used to come back as nan
        problem = problem_by_name("arctan-const-sigma", 1)
        with pytest.raises(ValueError, match="at least 2"):
            estimate_c_constants(problem, SchemeParams(), 0.0,
                                 np.zeros((1, 1)), m, None, RngStream(0))

    @pytest.mark.parametrize("degree", [np.nan, -1.0, np.inf])
    def test_bad_weight_degree_rejected(self, degree):
        # nan used to give CEstimate(-inf, 0, -inf, 0), -1 and inf a warning
        problem = problem_by_name("arctan-const-sigma", 1)
        with pytest.raises(ValueError, match="weight_degree"):
            estimate_c_constants(problem, SchemeParams(), degree,
                                 np.zeros((1, 1)), 10, None, RngStream(0))

    def test_flat_probes_in_one_dimension_are_points(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        flat = np.linspace(-3.0, 3.0, 7)
        est = estimate_c_constants(problem, SchemeParams(), 2.0, flat, 200,
                                   None, RngStream(23))
        assert est == estimate_c_constants(problem, SchemeParams(), 2.0,
                                           flat[:, None], 200, None,
                                           RngStream(23))

    def test_non_finite_probe_named(self):
        # 3^700 overflows, so the probe's weight ratio is nan; the max over
        # probes once skipped it and returned CEstimate(-inf, 0, -inf, 0)
        problem = problem_by_name("arctan-const-sigma")
        with pytest.raises(NonFiniteValue, match="at probe 0$"):
            estimate_c_constants(problem, SchemeParams(), 700.0, [[3.0]],
                                 200, None, RngStream(0))

    def test_probes_of_the_wrong_dimension_rejected(self):
        problem = problem_by_name("arctan-const-sigma", 2)
        with pytest.raises(ValueError, match="dimension 2"):
            estimate_c_constants(problem, SchemeParams(), 2.0,
                                 np.zeros((4, 3)), 10, None, RngStream(0))


class TestReport:
    @pytest.mark.parametrize("c_inf, c_tilde_inf", [(1e200, 1.0),
                                                    (1.0, 1e200)])
    def test_kernel_norm_whose_square_overflows(self, c_inf, c_tilde_inf):
        # c**2 once raised OverflowError out of both formulas
        rows = contraction_report(driver(3.0, 0.5, 1.0), SchemeParams(),
                                  c_inf, c_tilde_inf)
        by_name = {r.name: r for r in rows}
        for name in ("kappa_inf", "simplified_bound"):
            assert by_name[name].value == math.inf
            assert by_name[name].status == "not a contraction"

    def test_rows_and_statuses(self):
        rows = contraction_report(driver(2.0, 0.5, 2.0), SchemeParams(),
                                  0.5, 1.0)
        names = [r.name for r in rows]
        assert names == ["lip_y", "lip_z", "monotonicity", "discount_y",
                         "discount_z", "shift_y", "shift_z", "c_inf",
                         "c_tilde_inf", "kappa_inf", "simplified_bound"]
        by_name = {r.name: r for r in rows}
        assert by_name["discount_y"].status == "ok"
        assert by_name["kappa_inf"].value == pytest.approx(0.5590169943749475)
        assert by_name["kappa_inf"].status == "contraction"
        # zero Lipschitz gap: the cheap bound coincides with kappa_inf here
        assert by_name["simplified_bound"].value == pytest.approx(
            by_name["kappa_inf"].value)
        assert by_name["simplified_bound"].status == "contraction"

    def test_discount_below_rate_flagged(self):
        rows = contraction_report(driver(1.0),
                                  SchemeParams(discount_y=1.0, exp_rate=1.5),
                                  0.5, 1.0)
        assert "violated" in {r.name: r for r in rows}["discount_y"].status

    @pytest.mark.parametrize("discount, rate", [("discount_y", "exp_rate"),
                                                ("discount_z", "gamma_rate")])
    def test_discount_not_above_rate_fails(self, discount, rate):
        def statuses(**change):
            params = SchemeParams(**{"discount_y": 2.0, "discount_z": 2.0,
                                     "exp_rate": 1.5, "gamma_rate": 1.5,
                                     **change})
            rows = contraction_report(driver(2.0, 0.5, 1.0), params, 0.5, 1.0)
            return {r.name: r.status for r in rows}

        paper = statuses()
        assert paper["discount_y"] == paper["discount_z"] == "ok"
        # the inequality is strict: a discount equal to its rate fails
        failed = statuses(**{discount: 1.5})
        assert failed[discount] == f"violated: {discount} <= {rate}"
        other = "discount_z" if discount == "discount_y" else "discount_y"
        assert failed[other] == "ok"
