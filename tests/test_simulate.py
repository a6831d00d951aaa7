"""Random horizon samplers, path simulation, and the Malliavin weight."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from infbsde import (DegenerateDiffusion, RngStream, SchemeParams,
                     problem_by_name, sample_exponential, sample_fk_batch,
                     sample_gamma_half, simulate_batch, simulate_fk_sample,
                     simulate_paths)
from infbsde import simulate
from infbsde.model import SdeSpec

PARAMS = SchemeParams(2.0, 2.0, 1.5, 1.5)


def ou_sde(rate=1.0):
    """dX = -rate*X dt + dW; X_t ~ N(x e^{-rt}, (1-e^{-2rt})/(2r))."""
    def drift(x):
        return -rate * x

    def drift_jac(x):
        m, d = x.shape
        return np.broadcast_to(-rate * np.eye(d), (m, d, d))

    def eye(x):
        m, d = x.shape
        return np.broadcast_to(np.eye(d), (m, d, d))

    return SdeSpec(dim=1, drift=drift, diffusion=eye, inverse_diffusion=eye,
                   diffusion_jacobian=None, drift_jacobian=drift_jac,
                   lip_drift=rate, lip_diffusion=0.0, bound_diffusion=1.0,
                   bound_inverse_diffusion=1.0, is_brownian=False)


def coupled_sde():
    """Two-dimensional dynamics with state-dependent drift and diffusion."""
    a = np.array([[0.3, 0.1], [-0.2, 0.25]])

    def drift(x):
        return -np.sin(x) @ a.T

    def drift_jac(x):
        return -a[None] * np.cos(x)[:, None, :]

    def diffusion(x):
        s = np.zeros((x.shape[0], 2, 2))
        s[:, 0, 0] = 1.0 + 0.3 * np.tanh(x[:, 0])
        s[:, 1, 1] = 1.0 + 0.2 * np.tanh(x[:, 1])
        s[:, 0, 1] = 0.1 * np.sin(x[:, 1])
        return s

    def diffusion_jac(x):
        j = np.zeros((x.shape[0], 2, 2, 2))
        j[:, 0, 0, 0] = 0.3 * (1.0 - np.tanh(x[:, 0]) ** 2)
        j[:, 1, 1, 1] = 0.2 * (1.0 - np.tanh(x[:, 1]) ** 2)
        j[:, 0, 1, 1] = 0.1 * np.cos(x[:, 1])
        return j

    return SdeSpec(dim=2, drift=drift, diffusion=diffusion,
                   inverse_diffusion=lambda x: np.linalg.inv(diffusion(x)),
                   diffusion_jacobian=diffusion_jac, drift_jacobian=drift_jac,
                   lip_drift=0.4, lip_diffusion=0.3, bound_diffusion=1.4,
                   bound_inverse_diffusion=1.5, is_brownian=False)


def collapsing_sde():
    """Driftless 2-d dynamics whose diffusion collapses where x_0 > 5."""
    def scale(x):
        return np.where(x[:, 0] > 5.0, 1e-13, 1.0)

    def diag(x, second):
        s = np.zeros((x.shape[0], 2, 2))
        s[:, 0, 0] = 1.0
        s[:, 1, 1] = second
        return s

    return SdeSpec(dim=2, drift=lambda x: np.zeros_like(x),
                   diffusion=lambda x: diag(x, scale(x)),
                   inverse_diffusion=lambda x: diag(x, 1.0 / scale(x)),
                   is_brownian=False)


def with_sde(sde, dim):
    base = problem_by_name("arctan-const-sigma", dim)
    return type(base)(name="custom", sde=sde, gen=base.gen, analytic=None,
                      mu0_std=2.0)


class TestHorizonSamplers:
    def test_exponential_moments(self):
        draws = sample_exponential(RngStream(7), 1.5, size=1_000_000)
        assert abs(draws.mean() - 2.0 / 3.0) < 0.003
        assert abs(draws.var() - 4.0 / 9.0) < 0.01

    def test_exponential_deterministic(self):
        a = sample_exponential(RngStream(7, stream_id=3), 1.5, size=5)
        b = sample_exponential(RngStream(7, stream_id=3), 1.5, size=5)
        np.testing.assert_array_equal(a, b)

    def test_gamma_half_moments(self):
        draws = sample_gamma_half(RngStream(8), 1.5, size=1_000_000)
        assert abs(draws.mean() - 1.0 / 3.0) < 0.003
        assert abs(draws.var() - 2.0 / 9.0) < 0.01

    def test_gamma_half_distribution(self):
        draws = sample_gamma_half(RngStream(9), 1.5, size=200_000)
        stat = stats.kstest(draws, stats.gamma(a=0.5, scale=1 / 1.5).cdf).statistic
        assert stat < 0.005

    def test_gamma_half_laplace_transform(self):
        # E[e^{-s G}] = (1 + s/rate)^{-1/2}
        draws = sample_gamma_half(RngStream(10), 1.5, size=500_000)
        assert abs(np.exp(-draws).mean() - (1 + 1 / 1.5) ** -0.5) < 0.002


class TestBrownianFk:
    def setup_method(self):
        self.problem = problem_by_name("arctan-const-sigma", 1)

    def test_increment_is_standard_normal(self):
        fk = sample_fk_batch(self.problem, PARAMS, np.array([0.3]), 100_000,
                             None, RngStream(1))
        z_e = (fk.x_at_e[:, 0] - 0.3) / np.sqrt(fk.e_time)
        z_g = (fk.x_at_g[:, 0] - 0.3) / np.sqrt(fk.g_time)
        assert stats.kstest(z_e, stats.norm.cdf).statistic < 0.006
        assert stats.kstest(z_g, stats.norm.cdf).statistic < 0.006

    def test_malliavin_equals_scaled_increment(self):
        fk = sample_fk_batch(self.problem, PARAMS, np.array([-1.0]), 1000,
                             None, RngStream(2))
        expected = (fk.x_at_g - (-1.0)) / fk.g_time[:, None]
        np.testing.assert_allclose(fk.malliavin_at_g, expected, atol=1e-12)

    def test_horizon_laws(self):
        fk = sample_fk_batch(self.problem, PARAMS, np.array([0.0]), 400_000,
                             None, RngStream(3))
        assert abs(fk.e_time.mean() - 1 / 1.5) < 0.005
        assert abs(fk.g_time.mean() - 1 / 3.0) < 0.005

    @pytest.mark.parametrize("dim", [1, 2])
    def test_time_scaled_weight_norm(self, dim):
        # G * |U|^2 = |Z|^2 has chi-square law with `dim` degrees of freedom
        problem = problem_by_name("arctan-const-sigma", dim)
        fk = sample_fk_batch(problem, PARAMS, np.zeros(dim), 100_000, None,
                             RngStream(4))
        stat = fk.g_time * np.sum(fk.malliavin_at_g**2, axis=1)
        assert abs(stat.mean() - dim) < 0.02 * dim

    def test_single_sample_matches_batch_row(self):
        sample = simulate_fk_sample(self.problem, PARAMS, np.array([0.5]),
                                    None, RngStream(5))
        batch = sample_fk_batch(self.problem, PARAMS, np.array([0.5]), 1,
                                None, RngStream(5))
        assert sample.e_time == batch.e_time[0]
        np.testing.assert_array_equal(sample.x_at_g, batch.x_at_g[0])


class TestBrownianMalliavinProperties:
    """Moments of the Brownian weight W = Z / sqrt(G) at a fixed seed.

    W itself has no mean (E|W| is infinite, since E[1/|Z|] is), so its
    zero mean is checked as symmetry, P(W > 0) = 1/2, and as E[sqrt(G) W]
    = 0, the form in which the estimator's sqrt(G) discount weight meets
    it.  Each sample mean must lie within 5 of its standard errors;
    the examples are derandomized, so the suite stays deterministic.
    """

    M = 20_000

    @staticmethod
    def weights(dim, gamma_rate, start):
        problem = problem_by_name("arctan-const-sigma", dim)
        params = SchemeParams(gamma_rate=gamma_rate, discount_z=gamma_rate + 1)
        fk = sample_fk_batch(problem, params, np.full(dim, start),
                             TestBrownianMalliavinProperties.M, None,
                             RngStream(17))
        return fk.g_time, fk.malliavin_at_g

    @staticmethod
    def assert_mean(samples, expected):
        # samples: (M, k) draws of k statistics with the given means
        se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
        assert np.all(np.abs(samples.mean(axis=0) - expected) <= 5 * se)

    cases = given(st.integers(1, 3), st.floats(0.2, 5.0), st.floats(-3, 3))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @cases
    def test_mean_zero(self, dim, gamma_rate, start):
        g, w = self.weights(dim, gamma_rate, start)
        self.assert_mean((w > 0).astype(float), 0.5)
        self.assert_mean(np.sqrt(g)[:, None] * w, 0.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @cases
    def test_time_scaled_second_moment_is_identity(self, dim, gamma_rate,
                                                   start):
        g, w = self.weights(dim, gamma_rate, start)
        outer = g[:, None, None] * w[:, :, None] * w[:, None, :]
        self.assert_mean(outer.reshape(self.M, dim * dim),
                         np.eye(dim).ravel())


class TestPerPointStreams:
    def test_swap_order_invariance(self):
        problem = problem_by_name("arctan-const-sigma", 2)
        pts = np.array([[0.5, -1.0], [2.0, 0.25]])
        fwd = simulate_batch(problem, PARAMS, pts, 50, None, RngStream(6))
        rev = simulate_batch(problem, PARAMS, pts[::-1], 50, None, RngStream(6))
        np.testing.assert_array_equal(fwd[0].x_at_e, rev[1].x_at_e)
        np.testing.assert_array_equal(fwd[1].malliavin_at_g,
                                      rev[0].malliavin_at_g)

    def test_distinct_points_distinct_draws(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        batches = simulate_batch(problem, PARAMS, [[0.0], [0.3]], 10, None,
                                 RngStream(6))
        assert not np.array_equal(batches[0].e_time, batches[1].e_time)


class TestEulerScheme:
    def test_marginal_law_matches_closed_form(self):
        sde = ou_sde(1.0)
        state = simulate_paths(sde, np.array([1.5]), 1.0, 0.002, 10_000,
                               RngStream(11))
        mean = 1.5 * np.exp(-1.0)
        std = np.sqrt((1 - np.exp(-2.0)) / 2.0)
        stat = stats.kstest(state.x[:, 0],
                            stats.norm(loc=mean, scale=std).cdf).statistic
        assert stat < 0.012

    def test_tangent_matches_flow_derivative(self):
        # dX = -X dt + dW has deterministic tangent e^{-t}
        sde = ou_sde(1.0)
        state = simulate_paths(sde, np.array([0.7]), 1.0, 0.001, 100,
                               RngStream(12))
        np.testing.assert_allclose(state.tangent[:, 0, 0], np.exp(-1.0),
                                   rtol=1e-3)

    def test_tangent_against_finite_difference(self):
        problem = problem_by_name("arctan-tanh-sigma", 1, {"eps": 0.9})
        sde = problem.sde
        h, t, dt = 1e-4, 0.5, 1e-3
        x0 = 0.4
        center = simulate_paths(sde, np.array([x0]), t, dt, 200, RngStream(13))
        up = simulate_paths(sde, np.array([x0 + h]), t, dt, 200, RngStream(13))
        dn = simulate_paths(sde, np.array([x0 - h]), t, dt, 200, RngStream(13))
        fd = (up.x - dn.x) / (2 * h)
        rel = np.abs(fd[:, 0] - center.tangent[:, 0, 0]) \
            / np.abs(center.tangent[:, 0, 0])
        assert rel.max() < 1e-2

    def test_horizons_are_step_multiples(self):
        problem = problem_by_name("arctan-tanh-sigma", 1)
        dt = 0.01
        fk = sample_fk_batch(problem, PARAMS, np.array([0.2]), 500, dt,
                             RngStream(14))
        assert np.all(fk.e_time > 0)
        np.testing.assert_allclose(np.round(fk.e_time / dt) * dt, fk.e_time,
                                   atol=1e-12)
        np.testing.assert_allclose(np.round(fk.g_time / dt) * dt, fk.g_time,
                                   atol=1e-12)

    def test_euler_brownian_limit_agrees_with_exact(self):
        # eps=0 degenerates the tanh dynamics to unit-diffusion noise
        problem = problem_by_name("arctan-tanh-sigma", 1, {"eps": 0.0})
        fk = sample_fk_batch(problem, PARAMS, np.array([0.0]), 50_000, 0.01,
                             RngStream(15))
        z = fk.x_at_e[:, 0] / np.sqrt(fk.e_time)
        assert stats.kstest(z, stats.norm.cdf).statistic < 0.01

    def test_degenerate_diffusion_raises(self):
        def sig(x):
            m = x.shape[0]
            return np.broadcast_to(np.diag([1.0, 1e-13]), (m, 2, 2))

        def siginv(x):
            m = x.shape[0]
            return np.broadcast_to(np.diag([1.0, 1e13]), (m, 2, 2))

        sde = SdeSpec(dim=2, drift=lambda x: np.zeros_like(x), diffusion=sig,
                      inverse_diffusion=siginv, diffusion_jacobian=None,
                      drift_jacobian=None, lip_drift=0.0, lip_diffusion=0.0,
                      bound_diffusion=1.0, bound_inverse_diffusion=1e13,
                      is_brownian=False)
        problem = problem_by_name("arctan-const-sigma", 2)
        bad = type(problem)(name="degenerate", sde=sde, gen=problem.gen,
                            analytic=None, mu0_std=2.0)
        with pytest.raises(DegenerateDiffusion):
            sample_fk_batch(bad, PARAMS, np.zeros(2), 10, 0.05, RngStream(16))

    def test_paths_check_degeneracy(self):
        sde = collapsing_sde()
        simulate_paths(sde, np.zeros(2), 0.1, 0.05, 10, RngStream(24))
        with pytest.raises(DegenerateDiffusion):
            simulate_paths(sde, np.array([10.0, 0.0]), 0.1, 0.05, 10,
                           RngStream(24))


FK_FIELDS = ("e_time", "g_time", "x_at_e", "x_at_g", "malliavin_at_g")


def assert_blocks_match(problem, starts, m, dt, streams):
    """One call over all blocks equals the per-block calls, concatenated."""
    rows = np.repeat(starts, m, axis=0)
    chunk = sample_fk_batch(problem, PARAMS, rows, m * len(streams), dt,
                            streams)
    parts = [sample_fk_batch(problem, PARAMS, x, m, dt, stream.generator())
             for x, stream in zip(starts, streams)]
    for name in FK_FIELDS:
        np.testing.assert_array_equal(
            getattr(chunk, name),
            np.concatenate([getattr(p, name) for p in parts]))
    return chunk


class TestStreamBlocks:
    def test_chunk_of_nodes_matches_per_node_calls(self):
        problem = problem_by_name("arctan-tanh-sigma", 1)
        starts = np.linspace(-3.0, 3.0, 7)[:, None]
        streams = [RngStream(17).substream(i) for i in range(7)]
        assert_blocks_match(problem, starts, 300, 0.02, streams)

    def test_coupled_two_dimensional_dynamics(self):
        problem = with_sde(coupled_sde(), 2)
        starts = np.array([[0.4, -0.2], [-1.0, 1.5], [2.0, 0.0]])
        streams = [RngStream(18, stream_id=i) for i in range(3)]
        assert_blocks_match(problem, starts, 150, 0.05, streams)

    @pytest.mark.parametrize("window", [1, 40, 700])
    def test_many_windows(self, monkeypatch, window):
        monkeypatch.setattr(simulate, "WINDOW_VALUES", window)
        problem = problem_by_name("arctan-tanh-sigma", 1)
        starts = np.array([[-0.5], [0.0], [1.5], [2.5]])
        streams = [RngStream(19).substream(i) for i in range(4)]
        dt = 0.02
        chunk = assert_blocks_match(problem, starts, 100, dt, streams)
        steps = np.rint(np.maximum(chunk.e_time, chunk.g_time) / dt)
        assert steps.sum() > 20 * window

    def test_brownian_blocks(self):
        problem = problem_by_name("arctan-const-sigma", 2)
        starts = np.array([[0.0, 1.0], [-2.0, 0.5]])
        streams = [RngStream(20).substream(i) for i in range(2)]
        assert_blocks_match(problem, starts, 50, None, streams)

    def test_one_stream_list_equals_plain_call(self):
        problem = problem_by_name("arctan-tanh-sigma", 1)
        listed = sample_fk_batch(problem, PARAMS, np.array([0.2]), 64, 0.05,
                                 [RngStream(21)])
        plain = sample_fk_batch(problem, PARAMS, np.array([0.2]), 64, 0.05,
                                RngStream(21))
        for name in FK_FIELDS:
            np.testing.assert_array_equal(getattr(listed, name),
                                          getattr(plain, name))

    def test_rows_must_split_evenly(self):
        problem = problem_by_name("arctan-tanh-sigma", 1)
        with pytest.raises(ValueError):
            sample_fk_batch(problem, PARAMS, np.array([0.2]), 10, 0.05,
                            [RngStream(1), RngStream(2), RngStream(3)])

    def test_degenerate_block_raises(self):
        problem = with_sde(collapsing_sde(), 2)
        starts = np.array([[0.0, 0.0], [10.0, 0.0], [-1.0, 0.0]])
        streams = [RngStream(22).substream(i) for i in range(3)]
        sample_fk_batch(problem, PARAMS, starts[0], 20, 0.05,
                        streams[0].generator())
        with pytest.raises(DegenerateDiffusion):
            sample_fk_batch(problem, PARAMS, np.repeat(starts, 20, axis=0),
                            60, 0.05, streams)

    def test_peak_memory_of_a_large_call(self):
        problem = problem_by_name("arctan-tanh-sigma", 1)
        tracemalloc.start()
        try:
            sample_fk_batch(problem, PARAMS, np.array([0.3]), 40_000, 0.01,
                            RngStream(23))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestRngStream:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    def test_substream_lineage(self):
        base = RngStream(5, stream_id=2)
        child = base.substream(7)
        assert child.lineage == (7,)
        grand = child.substream(1)
        assert grand.lineage == (7, 1)

    def test_int_seed_names_stream(self):
        problem = problem_by_name("arctan-const-sigma", 2)
        a = sample_fk_batch(problem, PARAMS, np.zeros(2), 8, None, 3)
        b = sample_fk_batch(problem, PARAMS, np.zeros(2), 8, None, RngStream(3))
        np.testing.assert_array_equal(a.x_at_g, b.x_at_g)
        np.testing.assert_array_equal(a.malliavin_at_g, b.malliavin_at_g)

    @pytest.mark.parametrize("bad", [1.5, "3", None])
    def test_non_seed_rejected(self, bad):
        with pytest.raises(TypeError):
            sample_exponential(bad, 1.0, 3)

    def test_substreams_differ(self):
        base = RngStream(5)
        a = base.substream(0).generator().standard_normal(4)
        b = base.substream(1).generator().standard_normal(4)
        assert not np.array_equal(a, b)
