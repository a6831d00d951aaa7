"""Random horizon samplers, Euler paths, and the Malliavin weight."""
import contextlib
import dataclasses
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from infbsde import (DegenerateDiffusion, RngStream, SchemeParams,
                     problem_by_name, sample_fk_batch)
from infbsde import simulate
from infbsde.model import Coefficients, SdeSpec

PARAMS = SchemeParams(2.0, 2.0, 1.5, 1.5)


def ou_sde(rate=1.0):
    """dX = -rate*X dt + dW; X_t ~ N(x e^{-rt}, (1-e^{-2rt})/(2r))."""
    def coefficients(x):
        m, d = x.shape
        eye = np.broadcast_to(np.eye(d), (m, d, d))
        return Coefficients(drift=-rate * x, diffusion=eye,
                            inverse_diffusion=eye, drift_jacobian=-rate * eye)

    return SdeSpec(dim=1, coefficients=coefficients, is_brownian=False)


def coupled_sde():
    """Two-dimensional dynamics with state-dependent drift and diffusion."""
    a = np.array([[0.3, 0.1], [-0.2, 0.25]])

    def coefficients(x):
        s = np.zeros((x.shape[0], 2, 2))
        s[:, 0, 0] = 1.0 + 0.3 * np.tanh(x[:, 0])
        s[:, 1, 1] = 1.0 + 0.2 * np.tanh(x[:, 1])
        s[:, 0, 1] = 0.1 * np.sin(x[:, 1])
        j = np.zeros((x.shape[0], 2, 2, 2))
        j[:, 0, 0, 0] = 0.3 * (1.0 - np.tanh(x[:, 0]) ** 2)
        j[:, 1, 1, 1] = 0.2 * (1.0 - np.tanh(x[:, 1]) ** 2)
        j[:, 0, 1, 1] = 0.1 * np.cos(x[:, 1])
        return Coefficients(drift=-np.sin(x) @ a.T, diffusion=s,
                            inverse_diffusion=np.linalg.inv(s),
                            diffusion_jacobian=j,
                            drift_jacobian=-a[None] * np.cos(x)[:, None, :])

    return SdeSpec(dim=2, coefficients=coefficients, is_brownian=False)


def collapsing_sde():
    """Driftless 2-d dynamics whose diffusion collapses where x_0 > 5."""
    def diag(x, second):
        s = np.zeros((x.shape[0], 2, 2))
        s[:, 0, 0] = 1.0
        s[:, 1, 1] = second
        return s

    def coefficients(x):
        scale = np.where(x[:, 0] > 5.0, 1e-13, 1.0)
        return Coefficients(drift=None, diffusion=diag(x, scale),
                            inverse_diffusion=diag(x, 1.0 / scale))

    return SdeSpec(dim=2, coefficients=coefficients, is_brownian=False)


def collapsing_sde_1d():
    """Driftless 1-d dynamics whose diffusion is zero where x > 5.

    A 1x1 diffusion has condition number 1 wherever it is invertible, so
    the collapse shows as the non-finite estimate 0 * inf.
    """
    def coefficients(x):
        sig = np.where(x > 5.0, 0.0, 1.0)[:, :, None]
        with np.errstate(divide="ignore"):
            return Coefficients(drift=None, diffusion=sig,
                                inverse_diffusion=1.0 / sig)

    return SdeSpec(dim=1, coefficients=coefficients, is_brownian=False)


def driftless_sde():
    """1-d dynamics with diffusion 2 + sin(x) and neither Jacobian given."""
    def coefficients(x):
        sig = (2.0 + np.sin(x))[:, :, None]
        return Coefficients(drift=None, diffusion=sig,
                            inverse_diffusion=1.0 / sig)

    return SdeSpec(dim=1, coefficients=coefficients, is_brownian=False)


def mean_reverting_tanh_sde():
    """1-d dynamics with drift -x/2, diffusion 1 + tanh(x)/2, both Jacobians."""
    base = problem_by_name("arctan-tanh-sigma", 1, {"eps": 0.5}).sde

    def coefficients(x):
        return base.coefficients(x)._replace(
            drift=-0.5 * x, drift_jacobian=np.full((x.shape[0], 1, 1), -0.5))

    return SdeSpec(dim=1, coefficients=coefficients, is_brownian=False)


# one-dimensional dynamics covering each pair of present or absent Jacobians
SCALAR_SDES = {
    "tanh-sigma": lambda: problem_by_name("arctan-tanh-sigma", 1).sde,
    "ou": lambda: ou_sde(0.7), "driftless": driftless_sde,
    "both-jacobians": mean_reverting_tanh_sde}


def reference_euler_step(sde, x, tangent, integral, dw, dt):
    """The einsum Euler step with an explicit zero drift, as
    ``simulate._euler_step`` ran it for d >= 2 before a ``None`` drift
    skipped the drift term."""
    coef = sde.coefficients(x)
    drift = np.zeros_like(x) if coef.drift is None else coef.drift
    integral += np.einsum("mi,mij->mj", dw, coef.inverse_diffusion @ tangent)
    if coef.diffusion_jacobian is not None:
        dj = np.einsum("mikj,mjl,mk->mil", coef.diffusion_jacobian, tangent,
                       dw)
    else:
        dj = 0.0
    if coef.drift_jacobian is not None:
        dj = dj + np.einsum("mij,mjl->mil", coef.drift_jacobian,
                            tangent) * dt
    x += drift * dt + np.einsum("mij,mj->mi", coef.diffusion, dw)
    if not np.isscalar(dj):
        tangent += dj


def with_sde(sde, dim):
    base = problem_by_name("arctan-const-sigma", dim)
    return type(base)(name="custom", sde=sde, gen=base.gen, analytic=None,
                      mu0_std=2.0)


class TestHorizonSamplers:
    """Horizon laws as drawn by the Brownian sampler at rate 1.5."""

    @staticmethod
    def horizons(seed, m, stream_id=0):
        problem = problem_by_name("arctan-const-sigma", 1)
        return sample_fk_batch(problem, PARAMS, np.zeros(1), m, None,
                               RngStream(seed, stream_id=stream_id))

    def test_exponential_moments(self):
        draws = self.horizons(7, 1_000_000).e_time
        assert abs(draws.mean() - 2.0 / 3.0) < 0.003
        assert abs(draws.var() - 4.0 / 9.0) < 0.01

    def test_exponential_deterministic(self):
        a = self.horizons(7, 5, stream_id=3).e_time
        b = self.horizons(7, 5, stream_id=3).e_time
        np.testing.assert_array_equal(a, b)

    def test_gamma_half_moments(self):
        draws = self.horizons(8, 1_000_000).g_time
        assert abs(draws.mean() - 1.0 / 3.0) < 0.003
        assert abs(draws.var() - 2.0 / 9.0) < 0.01

    def test_gamma_half_distribution(self):
        draws = self.horizons(9, 200_000).g_time
        stat = stats.kstest(draws, stats.gamma(a=0.5, scale=1 / 1.5).cdf).statistic
        assert stat < 0.005

    def test_gamma_half_laplace_transform(self):
        # E[e^{-s G}] = (1 + s/rate)^{-1/2}
        draws = self.horizons(10, 500_000).g_time
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


class TestEulerScheme:
    def test_marginal_law_matches_closed_form(self):
        # each row stops at its rounded horizon t = e_time, where
        # X_t ~ N(x0 e^{-t}, (1 - e^{-2t})/2); 0.0163 is the Kolmogorov-
        # Smirnov statistic's 1% critical value at 10,000 draws
        x0 = 1.5
        fk = sample_fk_batch(with_sde(ou_sde(1.0), 1), PARAMS, np.array([x0]),
                             10_000, 0.002, RngStream(11))
        t = fk.e_time
        z = (fk.x_at_e[:, 0] - x0 * np.exp(-t)) / np.sqrt(-np.expm1(-2 * t) / 2)
        assert stats.kstest(z, stats.norm.cdf).statistic < 0.0163

    def test_tangent_matches_flow_derivative(self):
        # the Euler map of dX = -X dt + dW is affine in x0, with slope
        # (1 - dt)^n after n steps on every path
        problem = with_sde(ou_sde(1.0), 1)
        starts = np.array([[-1.0], [0.3], [1.5]])
        dt, h = 0.02, 0.25
        up, dn = (sample_fk_batch(problem, PARAMS, starts + shift, 200, dt,
                                  [RngStream(27).substream(i) for i in range(3)])
                  for shift in (h, -h))
        np.testing.assert_allclose((up.x_at_g - dn.x_at_g)[:, 0] / (2 * h),
                                   (1 - dt) ** np.rint(up.g_time / dt),
                                   rtol=1e-12)

    # problem, start points (one block each), rows per block and dt
    IBP_CASES = {
        "tanh-sigma": (lambda: problem_by_name("arctan-tanh-sigma", 1),
                       [[-1.0], [0.3], [1.5]], 12_000, 0.05),
        "ou": (lambda: with_sde(ou_sde(1.0), 1), [[-1.0], [0.3], [1.5]],
               12_000, 0.02),
        "coupled": (lambda: with_sde(coupled_sde(), 2),
                    [[0.4, -0.2], [-1.0, 1.5], [2.0, 0.0]], 2400, 0.05),
    }

    @pytest.mark.parametrize("kind", sorted(IBP_CASES))
    def test_malliavin_weight_integrates_by_parts(self, kind):
        """E[X_G (x) U] = E[dX_G/dx0] sigma(x0) for the Euler weight U.

        The tangent is the central difference of ``x_at_g`` between calls
        at x0 +- h on the same streams: the draws do not depend on the start
        point.  Three blocks run through the shared loop's gather.  ``x0``
        is subtracted from ``x_at_g``, which keeps the expectation (E[U] =
        0) and drops the x0 (x) U noise.  The tolerance is 4 standard errors
        of the rowwise gap plus dt for the Euler scheme's O(dt) bias.  That
        bias is zero without a drift, dt E[(1 - dt)^(n - 1)] for the OU
        process, and measured near 0.3 dt for ``coupled_sde`` at dt = 0.1
        and 0.2.  The OU case is the one where the tangent in the weight
        moves the mean (by about 0.1).
        """
        make, starts, m, dt = self.IBP_CASES[kind]
        problem, starts = make(), np.array(starts)
        k, d = starts.shape
        h = 1e-5
        rows = np.repeat(starts, m, axis=0)

        def sample(shift):
            return sample_fk_batch(problem, PARAMS, starts + shift, m, dt,
                                   [RngStream(28).substream(i)
                                    for i in range(k)])

        fk = sample(0.0)
        tangent = np.stack([(sample(h * e).x_at_g - sample(-h * e).x_at_g)
                            / (2 * h) for e in np.eye(d)], axis=-1)
        sigma0 = np.repeat(problem.sde.coefficients(starts).diffusion, m,
                           axis=0)
        gap = ((fk.x_at_g - rows)[:, :, None] * fk.malliavin_at_g[:, None, :]
               - tangent @ sigma0).reshape(k, m, d * d)
        se = gap.std(axis=1, ddof=1) / np.sqrt(m)
        assert np.all(np.abs(gap.mean(axis=1)) <= 4 * se + dt)

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

    def test_horizons_round_up_the_exact_draws(self):
        # both samplers draw the Exp block, then the normal block, first
        dt = 0.01
        euler = sample_fk_batch(problem_by_name("arctan-tanh-sigma", 1),
                                PARAMS, np.array([0.2]), 500, dt,
                                RngStream(25))
        exact = sample_fk_batch(problem_by_name("arctan-const-sigma", 1),
                                PARAMS, np.array([0.2]), 500, None,
                                RngStream(25))
        for got, raw in ((euler.e_time, exact.e_time),
                         (euler.g_time, exact.g_time)):
            np.testing.assert_array_equal(
                got, np.maximum(np.ceil(raw / dt), 1) * dt)

    def test_euler_brownian_limit_agrees_with_exact(self):
        # eps=0 degenerates the tanh dynamics to unit-diffusion noise
        problem = problem_by_name("arctan-tanh-sigma", 1, {"eps": 0.0})
        fk = sample_fk_batch(problem, PARAMS, np.array([0.0]), 50_000, 0.01,
                             RngStream(15))
        z = fk.x_at_e[:, 0] / np.sqrt(fk.e_time)
        assert stats.kstest(z, stats.norm.cdf).statistic < 0.01

    def test_degenerate_diffusion_raises(self):
        def coefficients(x):
            m = x.shape[0]
            return Coefficients(
                drift=None,
                diffusion=np.broadcast_to(np.diag([1.0, 1e-13]), (m, 2, 2)),
                inverse_diffusion=np.broadcast_to(np.diag([1.0, 1e13]),
                                                  (m, 2, 2)))

        sde = SdeSpec(dim=2, coefficients=coefficients, is_brownian=False)
        problem = problem_by_name("arctan-const-sigma", 2)
        bad = type(problem)(name="degenerate", sde=sde, gen=problem.gen,
                            analytic=None, mu0_std=2.0)
        with pytest.raises(DegenerateDiffusion):
            sample_fk_batch(bad, PARAMS, np.zeros(2), 10, 0.05, RngStream(16))


class TestScalarEulerStep:
    """The d == 1 branch of ``_euler_step`` against the einsum step.

    Rows are as the samplers feed them: finite, with no -0.0 in the state,
    the tangent or the integral (see ``simulate._euler_step``), but with
    exact zeros there and increments that are exactly +0.0 or -0.0.
    """

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(SCALAR_SDES)), st.integers(0, 2**32 - 1),
           st.integers(1, 64), st.floats(1e-4, 0.5))
    def test_same_bytes_as_einsum_step(self, kind, seed, m, dt):
        rng = np.random.default_rng(seed)

        def column(scale, zeros):
            col = rng.normal(0.0, scale, (m, 1)) \
                * 10.0 ** rng.integers(-3, 4, (m, 1))
            col[rng.random((m, 1)) < zeros] = 0.0
            return col

        x, integral = column(2.0, 0.1), column(1.0, 0.3)
        tangent = column(1.0, 0.1)[:, :, None]
        dw = column(np.sqrt(dt), 0.0)
        zero = rng.random((m, 1)) < 0.3
        dw[zero] = rng.choice([0.0, -0.0], zero.sum())
        sde = SCALAR_SDES[kind]()
        got = [x, tangent, integral]
        want = [a.copy() for a in got]
        simulate._euler_step(sde, *got, dw, dt, 1)
        reference_euler_step(sde, *want, dw, dt)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def counting(sde):
    """``sde`` with ``coefficients`` wrapped to record each call's row count."""
    calls = []

    def coefficients(x):
        calls.append(len(x))
        return sde.coefficients(x)

    return dataclasses.replace(sde, coefficients=coefficients), calls


class TestCoefficientCalls:
    @pytest.mark.parametrize("kind", sorted(SCALAR_SDES) + ["coupled"])
    def test_one_evaluation_per_step(self, kind):
        sde, calls = counting(coupled_sde() if kind == "coupled"
                              else SCALAR_SDES[kind]())
        m, d = 5, sde.dim
        x = np.linspace(-1.0, 1.0, m * d).reshape(m, d)
        tangent = np.broadcast_to(np.eye(d), (m, d, d)).copy()
        dw = np.full((m, d), 0.1)
        simulate._euler_step(sde, x, tangent, np.zeros((m, d)), dw, 0.01, 1)
        assert calls == [m]

    def test_one_evaluation_per_loop_step_and_one_at_the_starts(self):
        sde, calls = counting(problem_by_name("arctan-tanh-sigma", 1).sde)
        dt = 0.05
        fk = sample_fk_batch(with_sde(sde, 1), PARAMS, np.array([0.2]), 40,
                             dt, RngStream(26))
        steps = int(np.rint(np.maximum(fk.e_time, fk.g_time).max() / dt))
        assert len(calls) == steps + 1 and calls[-1] == 40


FK_FIELDS = ("e_time", "g_time", "x_at_e", "x_at_g", "malliavin_at_g")


def assert_blocks_match(problem, starts, m, dt, streams):
    """One call over all blocks equals the per-block calls, concatenated."""
    chunk = sample_fk_batch(problem, PARAMS, starts, m, dt, streams)
    parts = [sample_fk_batch(problem, PARAMS, x, m, dt, stream)
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

    @pytest.mark.parametrize("starts, m, n_streams", [
        pytest.param([0.2], 10, 3, id="3-streams-at-1-start"),
        pytest.param([-1.0, 0.2, 1.0], 10, 2, id="2-streams-at-3-starts"),
        pytest.param([0.2], 0, 1, id="no-draws"),
        pytest.param(np.zeros((0, 1)), 10, 1, id="no-starts")])
    def test_one_stream_or_one_per_start(self, starts, m, n_streams):
        # m >= 1 draws at each of k >= 1 starts, from 1 or k streams
        problem = problem_by_name("arctan-tanh-sigma", 1)
        with pytest.raises(ValueError):
            sample_fk_batch(problem, PARAMS, starts, m, 0.05,
                            [RngStream(i) for i in range(n_streams)])

    def test_degenerate_block_raises(self):
        problem = with_sde(collapsing_sde(), 2)
        starts = np.array([[0.0, 0.0], [10.0, 0.0], [-1.0, 0.0]])
        streams = [RngStream(22).substream(i) for i in range(3)]
        sample_fk_batch(problem, PARAMS, starts[0], 20, 0.05, streams[0])
        with pytest.raises(DegenerateDiffusion):
            sample_fk_batch(problem, PARAMS, starts, 20, 0.05, streams)

    def test_degenerate_block_raises_in_one_dimension(self):
        problem = with_sde(collapsing_sde_1d(), 1)
        starts = np.array([[0.0], [10.0], [-1.0]])
        streams = [RngStream(22).substream(i) for i in range(3)]
        sample_fk_batch(problem, PARAMS, starts[[0, 2]], 20, 0.05,
                        [streams[0], streams[2]])
        with pytest.raises(DegenerateDiffusion):
            sample_fk_batch(problem, PARAMS, starts, 20, 0.05, streams)

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

    def test_peak_memory_of_a_brownian_call(self):
        # the outputs, one concatenated copy of the draws and one (m, d)
        # temporary; the per-node draws must not outlive their concatenation
        m, d, k = 12_000, 2, 8
        problem = problem_by_name("arctan-const-sigma", d)
        starts = np.zeros((k, d))
        streams = [RngStream(23).substream(i) for i in range(k)]
        sample_fk_batch(problem, PARAMS, starts, m // k, None, streams)
        tracemalloc.start()
        try:
            sample_fk_batch(problem, PARAMS, starts, m // k, None, streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m * ((2 + 3 * d) + (2 + 2 * d) + d)

    def test_peak_memory_of_an_euler_call_of_many_blocks(self):
        # 26,000 rows, the size of a grid solve's draw-ahead call of 13
        # nodes x 4 iterations x 500 draws.  In 52 blocks the peak is the
        # noise window (8 * WINDOW_VALUES bytes) and about 180 bytes a row:
        # seven int64 and seven float64 arrays of m rows, and one step's
        # coefficients and temporaries.  In 1,000 blocks of 26 rows only
        # each block's generator (about 1.2 KB) and the window's (blocks x
        # steps) row-count tables, at most 8 * WINDOW_CELLS bytes each, add
        # to it.
        problem = problem_by_name("arctan-tanh-sigma", 1)

        def peak(blocks):
            starts = np.linspace(-3.0, 3.0, blocks)
            streams = [RngStream(23).substream(i) for i in range(blocks)]
            m = 26_000 // blocks
            sample_fk_batch(problem, PARAMS, starts, m, 0.02, streams)
            tracemalloc.start()
            try:
                sample_fk_batch(problem, PARAMS, starts, m, 0.02, streams)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few = peak(52)
        assert few <= 8 * simulate.WINDOW_VALUES + 180 * 26_000
        assert peak(1000) - few <= (1300 * (1000 - 52)
                                    + 4 * 8 * simulate.WINDOW_CELLS)


def fk_digest(fk):
    h = hashlib.sha256()
    for name in FK_FIELDS:
        h.update(np.ascontiguousarray(getattr(fk, name)).tobytes())
    return h.hexdigest()


class TestPinnedBytes:
    """SHA-256 of all five ``FkBatch`` arrays at fixed seeds and block counts.

    Recorded before ``SdeSpec.coefficients`` replaced the five coefficient
    callables, so that no later kernel edit moves a bit unseen.
    """

    CASES = {
        "tanh-sigma-1": (lambda: problem_by_name("arctan-tanh-sigma", 1),
                         1, 0.02, 400,
                         "20a6366c1d7e73dc1b1fb4b5fc0f5673"
                         "d712236645e6a353b6b9b872f359c719"),
        "tanh-sigma-5": (lambda: problem_by_name("arctan-tanh-sigma", 1),
                         5, 0.02, 120,
                         "38f50b79903a08813151e10dc6893765"
                         "319881d3eb60bfc65999052805ab6dc4"),
        "brownian-d2-1": (lambda: problem_by_name("arctan-const-sigma", 2),
                          1, None, 400,
                          "1d8f721cf314d0f987cb602001f164d3"
                          "4e6ddbe1bdc59b0cb64145b465a027ed"),
        "brownian-d2-4": (lambda: problem_by_name("arctan-const-sigma", 2),
                          4, None, 100,
                          "ab09a9e32b63ccd1d785752b929b5102"
                          "b81f1505d2421423f3b858d1b6e0b1b4"),
        "coupled-d2-3": (lambda: with_sde(coupled_sde(), 2), 3, 0.05, 80,
                         "2c94056a5ab0388e9d80f07411e40b0d"
                         "126a855980097a584fc3b4f5a57b7366"),
        "ou-2": (lambda: with_sde(ou_sde(0.7), 1), 2, 0.05, 150,
                 "13c85862b3c0d982f3411b463e47130"
                 "982a0f6307f0d4ba8023a82d130743a12"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest(self, case):
        make, k, dt, m, want = self.CASES[case]
        problem = make()
        d = problem.sde.dim
        starts = np.linspace(-2.0, 2.0, k * d).reshape(k, d)
        streams = [RngStream(41).substream(i) for i in range(k)]
        fk = sample_fk_batch(problem, PARAMS, starts, m, dt, streams)
        assert fk_digest(fk) == want


@contextlib.contextmanager
def argsort_key_dtypes():
    """Record the key dtype of every ``np.argsort`` call in the block."""
    seen, real = [], np.argsort

    def recording(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return real(a, *args, **kwargs)

    with mock.patch.object(np, "argsort", recording):
        yield seen


@st.composite
def tied_keys(draw):
    """Non-negative int64 keys from a pool of at most five values, the
    largest of which is ``top``; and ``top``."""
    top = draw(st.sampled_from([0, 1, 51, 370, 2**16 - 1, 2**16, 2**40]))
    pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    keys = draw(st.lists(st.sampled_from(pool + [top]), min_size=1,
                         max_size=300))
    keys[draw(st.integers(0, len(keys) - 1))] = top
    return np.array(keys, dtype=np.int64), top


def euler_d1_call():
    """A sampler call shaped as the grid-euler-d1 benchmark draws: 13 grid
    nodes, 4 Picard iterations' streams and 500 draws per node."""
    nodes = np.linspace(-3.0, 3.0, 13)[:, None]
    streams = [RngStream(3).substream(n).substream(i)
               for n in range(1, 5) for i in range(13)]
    return sample_fk_batch(problem_by_name("arctan-tanh-sigma", 1), PARAMS,
                           np.tile(nodes, (4, 1)), 500, 0.02, streams)


def one_block_call():
    return sample_fk_batch(problem_by_name("arctan-tanh-sigma", 1), PARAMS,
                           np.array([0.4]), 2000, 0.02, RngStream(8))


class TestStableOrder:
    @settings(max_examples=200, deadline=None)
    @given(tied_keys())
    def test_matches_int64_argsort(self, case):
        keys, top = case
        with argsort_key_dtypes() as seen:
            order = simulate._stable_order(keys)
        np.testing.assert_array_equal(order,
                                      np.argsort(keys, kind="stable"))
        narrow = top < simulate.NARROW_KEYS
        assert seen == [np.dtype(np.uint16 if narrow else np.int64)]

    @pytest.mark.parametrize("call", [one_block_call, euler_d1_call])
    def test_int64_keys_give_the_same_bits(self, monkeypatch, call):
        narrow = call()
        monkeypatch.setattr(simulate, "NARROW_KEYS", 0)
        with argsort_key_dtypes() as seen:
            wide = call()
        assert seen and set(seen) == {np.dtype(np.int64)}
        for name in FK_FIELDS:
            assert getattr(wide, name).tobytes() == \
                getattr(narrow, name).tobytes()

    def test_euler_call_makes_no_int64_sort(self):
        """The sampler's row orders stay on the radix sort."""
        with argsort_key_dtypes() as seen:
            euler_d1_call()
        assert seen and np.dtype(np.int64) not in seen


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

    @pytest.mark.parametrize("bad", [
        1.5, "3", None, pytest.param(3, id="int"),
        pytest.param(np.random.default_rng(3), id="generator"),
        pytest.param([RngStream(3), 3], id="int-in-sequence")])
    def test_non_seed_rejected(self, bad):
        # only an RngStream, or a sequence of them, is a random stream
        problem = problem_by_name("arctan-const-sigma", 1)
        with pytest.raises(TypeError):
            sample_fk_batch(problem, PARAMS, np.zeros(1), 3, None, rng=bad)

    def test_substreams_differ(self):
        base = RngStream(5)
        a = base.substream(0).generator().standard_normal(4)
        b = base.substream(1).generator().standard_normal(4)
        assert not np.array_equal(a, b)
