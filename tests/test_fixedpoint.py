"""Single-draw estimator, Monte Carlo reduction, and growth truncation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infbsde import (Grid, GridFunction, Mlp, NonFiniteValue, RngStream,
                     SchemeParams, estimate_phi, poly_weight, problem_by_name,
                     r_sample_batch, sample_fk_batch, truncate_growth)
from infbsde import fixedpoint
from infbsde.simulate import FkBatch

PARAMS = SchemeParams(2.0, 2.0, 1.5, 1.5)


def zero_candidate(dim, dim_y):
    """The candidate pair that is zero everywhere."""
    def w(x):
        return np.zeros((len(x), dim_y)), np.zeros((len(x), dim_y, dim))
    return w


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
        def w(x):
            return np.full((len(x), 1), 1.0), np.full((len(x), 1, 1), 0.4)

        fk = FkBatch(e_time=np.array([0.5]), g_time=np.array([0.25]),
                     x_at_e=np.array([[0.1]]), x_at_g=np.array([[-0.2]]),
                     malliavin_at_g=np.array([[1.2]]))
        comp1, comp2 = r_sample_batch(problem, PARAMS, w, fk)
        np.testing.assert_allclose(comp1, [[1.5576015661428098]], rtol=1e-14)
        np.testing.assert_allclose(comp2, [[[2.2988731170743946]]],
                                   rtol=1e-14)

    def test_zero_candidate_zero_source(self):
        problem = problem_by_name("linear-constant", 1, {"c0": 0.0})
        w = zero_candidate(1, 1)
        fk = sample_fk_batch(problem, PARAMS, np.array([0.7]), 64, None,
                             RngStream(1))
        comp1, comp2 = r_sample_batch(problem, PARAMS, w, fk)
        assert np.all(comp1 == 0.0) and np.all(comp2 == 0.0)

    def test_non_finite_candidate_raises(self):
        problem = problem_by_name("linear-constant", 1)

        def blown(x):
            m = x.shape[0]
            return np.full((m, 1), np.inf), np.zeros((m, 1, 1))

        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue):
            estimate_phi(problem, PARAMS, blown, [0.0], 2, None, RngStream(0))

    def test_batch_matches_row_draws(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        w = problem.analytic
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


def candidate_of_kind(kind, dim):
    """A grid function, a network or an analytic solution in ``dim``."""
    if kind == "grid":
        g = Grid(dim=dim, n_half=2, mesh=0.5)
        gen = np.random.default_rng(dim)
        return GridFunction(g, gen.normal(size=(g.n_nodes, 1)),
                            gen.normal(size=(g.n_nodes, 1, dim)))
    if kind == "net":
        return Mlp.init(dim, 1, (5,), RngStream(dim))
    return problem_by_name("arctan-const-sigma", dim).analytic


@pytest.mark.parametrize("kind", ["grid", "net", "analytic"])
def test_candidates_read_points_alike(kind):
    # d = 1: a flat array is m points; d = 2: a flat pair is one point
    for dim, flat, points in ((1, [0.1, -0.7, 2.3], [[0.1], [-0.7], [2.3]]),
                              (2, [0.1, -0.7], [[0.1, -0.7]])):
        w = candidate_of_kind(kind, dim)
        for got, want in zip(w(np.array(flat)), w(np.array(points))):
            assert got.shape == want.shape and got.shape[0] == len(points)
            assert got.tobytes() == want.tobytes()


class TestPhiEstimate:
    def test_zero_candidate_mean_is_source_over_discount(self):
        # E[(c0) e^{-(a-th)E}]/th = c0/a for E ~ Exp(th)
        problem = problem_by_name("linear-constant", 1)
        est = estimate_phi(problem, PARAMS, zero_candidate(1, 1),
                           np.array([0.0]), 100_000, None, RngStream(3))
        (mean1, mean2), (se1, se2) = est.value, est.std_err
        assert mean1.shape == se1.shape == (1, 1)
        assert mean2.shape == se2.shape == (1, 1, 1)
        assert abs(mean1[0, 0] - 1.5) < 4 * se1[0, 0]
        assert abs(mean2[0, 0, 0]) < 4 * se2[0, 0, 0]

    @pytest.mark.parametrize("x0", [-2.0, -0.5, 0.0, 1.0, 2.0])
    def test_analytic_solution_is_fixed_point(self, x0):
        problem = problem_by_name("arctan-const-sigma", 1)
        w = problem.analytic
        est = estimate_phi(problem, PARAMS, w, np.array([x0]), 40_000, None,
                           RngStream(int(10 * x0) + 40))
        u_true, ub_true = problem.analytic(np.array([[x0]]))
        (mean1, mean2), (se1, se2) = est.value, est.std_err
        assert np.all(np.abs(mean1 - u_true) < 4 * se1 + 1e-4)
        assert np.all(np.abs(mean2 - ub_true) < 4 * se2 + 1e-4)

    @pytest.mark.parametrize("bad", [3, np.random.default_rng(3)],
                             ids=["int", "generator"])
    def test_only_a_stream_accepted(self, bad):
        problem = problem_by_name("linear-constant", 1)
        with pytest.raises(TypeError):
            estimate_phi(problem, PARAMS, zero_candidate(1, 1),
                         np.array([0.0]), 4, None, bad)

    def test_requires_two_samples(self):
        problem = problem_by_name("linear-constant", 1)
        with pytest.raises(ValueError):
            estimate_phi(problem, PARAMS, zero_candidate(1, 1),
                         np.array([0.0]), 1, None, RngStream(0))

    def test_duplicated_samples_zero_std_err(self, monkeypatch):
        # a sampler whose m draws at a point are copies of one draw
        problem = problem_by_name("linear-constant", 1)
        real = fixedpoint.sample_fk_batch

        def one_draw_six_times(problem, params, x, m, dt, rng):
            fk = real(problem, params, x[::6], m // 6, dt, rng)
            return FkBatch(*(np.repeat(getattr(fk, f), 6, axis=0) for f in
                             ("e_time", "g_time", "x_at_e", "x_at_g",
                              "malliavin_at_g")))

        monkeypatch.setattr(fixedpoint, "sample_fk_batch", one_draw_six_times)
        est = estimate_phi(problem, PARAMS, zero_candidate(1, 1), [0.0], 6,
                           None, RngStream(4))
        assert np.all(est.std_err[0] == 0.0) and np.all(est.std_err[1] == 0.0)
        assert est.m == 6

    def test_non_finite_point_is_named(self):
        # the candidate blows up far from the first and last points only
        problem = problem_by_name("arctan-const-sigma", 1)

        def blown(x):
            u, ubar = problem.analytic(x)
            return np.where(x > 25.0, np.inf, u), ubar

        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteValue, match="at point 1$"):
            estimate_phi(problem, PARAMS, blown, [0.0, 50.0, -3.0], 200,
                         None, RngStream(6))

    def test_empty_point_set_rejected(self):
        problem = problem_by_name("linear-constant", 1)
        with pytest.raises(ValueError, match="at least one point"):
            estimate_phi(problem, PARAMS, zero_candidate(1, 1),
                         np.zeros((0, 1)), 4, None, RngStream(0))

    def test_one_stream_or_one_per_point(self):
        problem = problem_by_name("linear-constant", 1)
        with pytest.raises(ValueError, match="one per point"):
            estimate_phi(problem, PARAMS, zero_candidate(1, 1), [0.0, 1.0],
                         4, None, [RngStream(0), RngStream(1), RngStream(2)])


# Brownian d = 2 (exact sampling) and Euler d = 1, with a small step
BATCH_CASES = [pytest.param("arctan-const-sigma", 2, None, id="brownian-d2"),
               pytest.param("arctan-tanh-sigma", 1, 0.05, id="euler-d1")]


def batch_points(dim):
    return np.random.default_rng(dim).normal(0.0, 1.5, size=(5, dim))


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPhiBatch:
    """``k`` points with ``m`` draws each: one estimate per point."""

    @pytest.mark.parametrize("name, dim, dt", BATCH_CASES)
    def test_streams_per_point_equal_separate_calls(self, name, dim, dt):
        problem = problem_by_name(name, dim)
        points = batch_points(dim)
        streams = [RngStream(30, 2).substream(i) for i in range(len(points))]
        est = estimate_phi(problem, PARAMS, problem.analytic, points, 40, dt,
                           streams)
        assert est.value[0].shape == (5, 1)
        assert est.value[1].shape == est.std_err[1].shape == (5, 1, dim)
        for i, (x, stream) in enumerate(zip(points, streams)):
            one = estimate_phi(problem, PARAMS, problem.analytic, x, 40, dt,
                               stream)
            assert_same_bits(one.value, [c[i:i + 1] for c in est.value])
            assert_same_bits(one.std_err, [c[i:i + 1] for c in est.std_err])

    @pytest.mark.parametrize("name, dim, dt", BATCH_CASES)
    def test_one_stream_reads_draws_as_sample_fk_batch_does(self, name, dim,
                                                            dt):
        # one stream draws all k * m rows, point i owning rows i*m..(i+1)*m
        problem = problem_by_name(name, dim)
        points, m = batch_points(dim), 40
        est = estimate_phi(problem, PARAMS, problem.analytic, points, m, dt,
                           RngStream(31))
        fk = sample_fk_batch(problem, PARAMS, np.repeat(points, m, axis=0),
                             len(points) * m, dt, RngStream(31))
        comps = r_sample_batch(problem, PARAMS, problem.analytic, fk)
        for i in range(len(points)):
            rows = [c[i * m:(i + 1) * m] for c in comps]
            assert_same_bits([c[i] for c in est.value],
                             [r.mean(axis=0) for r in rows])
            assert_same_bits([c[i] for c in est.std_err],
                             [r.std(axis=0, ddof=1) / np.sqrt(m)
                              for r in rows])
        # with one point, one stream and a list of it are the same call
        one = estimate_phi(problem, PARAMS, problem.analytic, points[0], m,
                           dt, RngStream(31))
        listed = estimate_phi(problem, PARAMS, problem.analytic, points[:1],
                              m, dt, [RngStream(31)])
        assert_same_bits(one.value + one.std_err,
                         listed.value + listed.std_err)

    def test_hundred_points_give_hundred_estimates(self):
        # 100 points at m = 100 are 100 means of 100 draws, not one mean
        problem = problem_by_name("arctan-const-sigma", 2)
        est = estimate_phi(problem, PARAMS, problem.analytic,
                           np.zeros((100, 2)), 100, None, RngStream(0))
        assert est.value[0].shape == est.std_err[0].shape == (100, 1)
        assert est.value[1].shape == est.std_err[1].shape == (100, 1, 2)
        assert est.m == 100
        assert len(np.unique(est.value[0])) == 100


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

