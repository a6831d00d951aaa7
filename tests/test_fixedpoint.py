"""Single-draw estimator, Monte Carlo reduction, and growth truncation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infbsde import (CandidatePair, NonFiniteValue, RngStream, SchemeParams,
                     as_candidate, estimate_phi, estimate_phi_from_samples,
                     poly_weight, problem_by_name, r_sample_batch,
                     sample_fk_batch, truncate_growth)
from infbsde.simulate import FkBatch

PARAMS = SchemeParams(2.0, 2.0, 1.5, 1.5)


class TestPolyWeight:
    def test_values(self):
        assert poly_weight(np.array([2.0]), 3.0) == 9.0
        np.testing.assert_allclose(
            poly_weight(np.array([[3.0, 4.0], [0.0, 0.0]]), 2.0), [26.0, 1.0])

    def test_degree_zero_is_constant_two(self):
        np.testing.assert_allclose(
            poly_weight(np.array([[0.0], [5.0]]), 0.0), [2.0, 2.0])


class TestSingleDraw:
    def test_hand_computed_draw(self):
        # f(x, y, z) = 3 - 2y; w constant (1, 0.4); horizon draw fixed below
        problem = problem_by_name("linear-constant", 1)
        w = CandidatePair(lambda x: (np.full((len(x), 1), 1.0),
                                     np.full((len(x), 1, 1), 0.4)), 1, 1)
        fk = FkBatch(e_time=np.array([0.5]), g_time=np.array([0.25]),
                     x_at_e=np.array([[0.1]]), x_at_g=np.array([[-0.2]]),
                     malliavin_at_g=np.array([[1.2]]))
        comp1, comp2 = r_sample_batch(problem, PARAMS, w, fk)
        np.testing.assert_allclose(comp1, [[1.5576015661428098]], rtol=1e-14)
        np.testing.assert_allclose(comp2, [[[2.2988731170743946]]],
                                   rtol=1e-14)

    def test_zero_candidate_zero_source(self):
        problem = problem_by_name("linear-constant", 1, {"c0": 0.0})
        w = CandidatePair.zero(1, 1)
        fk = sample_fk_batch(problem, PARAMS, np.array([0.7]), 64, None,
                             RngStream(1))
        comp1, comp2 = r_sample_batch(problem, PARAMS, w, fk)
        assert np.all(comp1 == 0.0) and np.all(comp2 == 0.0)

    def test_non_finite_candidate_raises(self):
        problem = problem_by_name("linear-constant", 1)

        def blown(x):
            m = x.shape[0]
            return np.full((m, 1), np.inf), np.zeros((m, 1, 1))

        w = CandidatePair(blown, 1, 1, "inf")
        fk = FkBatch(np.array([0.5, 0.75]), np.array([0.25, 0.5]),
                     np.zeros((2, 1)), np.zeros((2, 1)), np.ones((2, 1)))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue):
            estimate_phi_from_samples(problem, PARAMS, w, fk)

    def test_batch_matches_row_draws(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        w = CandidatePair.from_analytic(problem)
        fk = sample_fk_batch(problem, PARAMS, np.array([0.4]), 8, None,
                             RngStream(2))
        comp1, comp2 = r_sample_batch(problem, PARAMS, w, fk)
        fields = (fk.e_time, fk.g_time, fk.x_at_e, fk.x_at_g,
                  fk.malliavin_at_g)
        for i in range(8):
            row = FkBatch(*(a[i:i + 1] for a in fields))
            c1, c2 = r_sample_batch(problem, PARAMS, w, row)
            np.testing.assert_array_equal(c1, comp1[i:i + 1])
            np.testing.assert_array_equal(c2, comp2[i:i + 1])


class TestPhiEstimate:
    def test_zero_candidate_mean_is_source_over_discount(self):
        # E[(c0) e^{-(a-th)E}]/th = c0/a for E ~ Exp(th)
        problem = problem_by_name("linear-constant", 1)
        est = estimate_phi(problem, PARAMS, CandidatePair.zero(1, 1),
                           np.array([0.0]), 100_000, None, RngStream(3))
        mean1, mean2 = est.value
        se1, se2 = est.std_err
        assert abs(mean1[0] - 1.5) < 4 * se1[0]
        assert abs(mean2[0, 0]) < 4 * se2[0, 0]

    @pytest.mark.parametrize("x0", [-2.0, -0.5, 0.0, 1.0, 2.0])
    def test_analytic_solution_is_fixed_point(self, x0):
        problem = problem_by_name("arctan-const-sigma", 1)
        w = CandidatePair.from_analytic(problem)
        est = estimate_phi(problem, PARAMS, w, np.array([x0]), 40_000, None,
                           RngStream(int(10 * x0) + 40))
        u_true = problem.analytic.u(np.array([[x0]]))[0]
        ub_true = problem.analytic.ubar(np.array([[x0]]))[0]
        mean1, mean2 = est.value
        se1, se2 = est.std_err
        assert abs(mean1[0] - u_true[0]) < 4 * se1[0] + 1e-4
        assert abs(mean2[0, 0] - ub_true[0, 0]) < 4 * se2[0, 0] + 1e-4

    def test_requires_two_samples(self):
        problem = problem_by_name("linear-constant", 1)
        with pytest.raises(ValueError):
            estimate_phi(problem, PARAMS, CandidatePair.zero(1, 1),
                         np.array([0.0]), 1, None, RngStream(0))

    def test_duplicated_samples_zero_std_err(self):
        problem = problem_by_name("linear-constant", 1)
        fk = sample_fk_batch(problem, PARAMS, np.array([0.0]), 1, None,
                             RngStream(4))
        from infbsde.simulate import FkBatch

        rep = FkBatch(*(np.repeat(getattr(fk, f), 6, axis=0) for f in
                        ("e_time", "g_time", "x_at_e", "x_at_g",
                         "malliavin_at_g")))
        est = estimate_phi_from_samples(problem, PARAMS,
                                        CandidatePair.zero(1, 1), rep)
        assert np.all(est.std_err[0] == 0.0) and np.all(est.std_err[1] == 0.0)
        assert est.m == 6


class TestTruncateGrowth:
    def test_inside_ball_unchanged(self):
        u = np.array([[0.3]])
        ub = np.array([[[0.4]]])
        out_u, out_ub = truncate_growth((u, ub), np.array([[1.0]]), 1.0, 1.0)
        np.testing.assert_array_equal(out_u, u)
        np.testing.assert_array_equal(out_ub, ub)

    def test_projection_example(self):
        # joint norm 5 against radius bound*rho = 1*2 -> scale 2/5
        out_u, out_ub = truncate_growth(
            (np.array([[3.0]]), np.array([[[4.0]]])), np.array([[1.0]]),
            1.0, 1.0)
        np.testing.assert_allclose(out_u, [[1.2]], rtol=1e-15)
        np.testing.assert_allclose(out_ub, [[[1.6]]], rtol=1e-15)

    def test_idempotent(self):
        gen = np.random.default_rng(5)
        u = gen.normal(size=(20, 2)) * 5
        ub = gen.normal(size=(20, 2, 3)) * 5
        x = gen.normal(size=(20, 3))
        once = truncate_growth((u, ub), x, 0.8, 2.0)
        twice = truncate_growth(once, x, 0.8, 2.0)
        np.testing.assert_allclose(twice[0], once[0], atol=1e-14)
        np.testing.assert_allclose(twice[1], once[1], atol=1e-14)

    def test_one_lipschitz(self):
        gen = np.random.default_rng(6)
        for _ in range(50):
            v = (gen.normal(size=(1, 1)) * 4, gen.normal(size=(1, 1, 1)) * 4)
            w = (gen.normal(size=(1, 1)) * 4, gen.normal(size=(1, 1, 1)) * 4)
            x = gen.normal(size=(1, 1))
            tv = truncate_growth(v, x, 1.0, 1.0)
            tw = truncate_growth(w, x, 1.0, 1.0)
            before = np.hypot(v[0] - w[0], v[1][0] - w[1][0])
            after = np.hypot(tv[0] - tw[0], tv[1][0] - tw[1][0])
            assert after <= before + 1e-12

    def test_zero_value_stays_zero(self):
        out_u, out_ub = truncate_growth((np.zeros((1, 1)), np.zeros((1, 1, 1))),
                                        np.zeros((1, 1)), 1.0, 2.0)
        assert np.all(out_u == 0.0) and np.all(out_ub == 0.0)
        assert np.isfinite(out_u).all()

    def test_batched_matches_per_node(self):
        gen = np.random.default_rng(7)
        u = gen.normal(size=(5, 1)) * 3
        ub = gen.normal(size=(5, 1, 2)) * 3
        x = gen.normal(size=(5, 2))
        bat_u, bat_ub = truncate_growth((u, ub), x, 0.5, 1.0)
        for i in range(5):
            si, sbi = truncate_growth((u[i:i + 1], ub[i:i + 1]), x[i:i + 1],
                                      0.5, 1.0)
            np.testing.assert_allclose(si, bat_u[i:i + 1], atol=1e-14)
            np.testing.assert_allclose(sbi, bat_ub[i:i + 1], atol=1e-14)


@st.composite
def truncation_cases(draw):
    """Points, two values near each other, and a weighted ball: d = 1-3,
    d' = 1-2, a batch of 1-5 pairs."""
    dim, dim_y = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    lead = draw(st.sampled_from([(1,), (2,), (5,)]))
    bound, degree = draw(st.floats(0.05, 5.0)), draw(st.floats(0.0, 4.0))
    scale, gap = draw(st.floats(0.01, 100.0)), draw(st.floats(1e-6, 10.0))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.normal(0.0, 2.0, size=lead + (dim,))
    v = (scale * gen.normal(size=lead + (dim_y,)),
         scale * gen.normal(size=lead + (dim_y, dim)))
    w = tuple(a + gap * gen.normal(size=a.shape) for a in v)
    return x, v, w, bound, degree


def joint_rows(value):
    """Each pair of a batched value as one joint row."""
    u, ubar = value
    return np.hstack([u, ubar.reshape(len(u), -1)])


class TestTruncateGrowthProperties:
    """The docstring's claims on random values, points, bounds and degrees."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(truncation_cases())
    def test_lands_in_ball_and_is_idempotent(self, case):
        x, v, _, bound, degree = case
        once = truncate_growth(v, x, bound, degree)
        radius = bound * poly_weight(x, degree)
        norms = np.linalg.norm(joint_rows(once), axis=1)
        assert np.all(norms <= radius * (1 + 1e-12))
        twice = truncate_growth(once, x, bound, degree)
        for a, b in zip(twice, once):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(truncation_cases())
    def test_one_lipschitz_in_the_value(self, case):
        x, v, w, bound, degree = case
        tv = joint_rows(truncate_growth(v, x, bound, degree))
        tw = joint_rows(truncate_growth(w, x, bound, degree))
        rv, rw = joint_rows(v), joint_rows(w)
        after = np.linalg.norm(tv - tw, axis=1)
        before = np.linalg.norm(rv - rw, axis=1)
        slack = 1e-12 * (np.linalg.norm(rv, axis=1)
                         + np.linalg.norm(rw, axis=1))
        assert np.all(after <= before + slack)


class TestAsCandidate:
    def test_passthrough(self):
        w = CandidatePair.zero(1, 1)
        assert as_candidate(w) is w

    def test_wraps_duck_typed_callable(self):
        class Net:
            dim_x = 2
            dim_y = 1

            def __call__(self, x):
                return np.ones((x.shape[0], 1)), np.zeros((x.shape[0], 1, 2))

        w = as_candidate(Net())
        u, ub = w(np.zeros((3, 2)))
        assert u.shape == (3, 1) and ub.shape == (3, 1, 2)

    def test_rejects_plain_object(self):
        with pytest.raises(TypeError):
            as_candidate(42)
