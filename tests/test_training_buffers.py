"""Reused buffers, the flat parameter vector and bound drivers change no
number.

The references below are the allocating forward pass, backprop, MSE
gradient and residual step, and the per-layer ADAM loop, that the buffered
and flat ones replaced; every comparison is exact, and gradients are
compared byte for byte, so a sum that turns -0.0 into +0.0 shows.
"""
import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from infbsde import (DirectConfig, Mlp, NnPicardConfig, PROBLEM_NAMES,
                     RngStream, SchemeParams, adam_step, bind_driver,
                     contraction_nn_solve, direct_nn_solve, load_checkpoint,
                     problem_by_name, r_sample_batch, sample_fk_batch,
                     sample_mu0)
from infbsde.fixedpoint import branches, one_draw_weights
from infbsde.neural import AdamState
from infbsde.nn_schemes import (TraceRow, _half_residuals, _half_upstream,
                                _rel_errors_at, _residual_loss_grads,
                                _train_regression)


def reference_forward(net, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    acts, pre, h = [x], [], x
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = h @ w + b
        pre.append(a)
        h = a if k == last else np.maximum(a, 0.0)
        acts.append(h)
    return acts, pre


def reference_backprop(net, acts, pre, delta):
    grads = []
    for k in range(len(net.weights) - 1, -1, -1):
        grads.append(delta.sum(axis=0))
        grads.append(acts[k].T @ delta)
        if k > 0:
            delta = (delta @ net.weights[k].T) * (pre[k - 1] > 0)
    grads.reverse()
    return grads


def reference_mse_grad(net, x, target_u, target_ubar):
    acts, pre = reference_forward(net, x)
    out = acts[-1]
    m = out.shape[0]
    target = np.concatenate([target_u.reshape(m, net.dim_y),
                             target_ubar.reshape(m, -1)], axis=1)
    resid = out - target
    loss = float(np.sum(resid**2) / m)
    return loss, reference_backprop(net, acts, pre, (2.0 / m) * resid)


class ReferenceAdam:
    """Per-parameter arrays and moments, stepped by the per-layer loop."""

    def __init__(self, params, base_lr=5e-4, decay=0.9, decay_period=1000,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = [np.array(p, dtype=float) for p in params]
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.step = 0
        self.base_lr, self.decay, self.decay_period = base_lr, decay, decay_period
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def net(self, dim_y):
        """The parameters as the weights and biases of a net."""
        return SimpleNamespace(dim_y=dim_y, weights=self.params[0::2],
                               biases=self.params[1::2])

    def update(self, grads):
        lr = self.base_lr * self.decay ** (self.step // self.decay_period)
        t = self.step + 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1**t
        corr2 = 1.0 - b2**t
        for p, g, mom, vel in zip(self.params, grads, self.m, self.v):
            mom *= b1
            mom += (1 - b1) * g
            vel *= b2
            vel += (1 - b2) * g**2
            p -= lr * (mom / corr1) / (np.sqrt(vel / corr2) + self.eps)
        self.step = t


def reference_train_regression(ref, dim_y, x, target_u, target_ubar, steps):
    loss = None
    for _ in range(steps):
        loss, grads = reference_mse_grad(ref.net(dim_y), x, target_u,
                                         target_ubar)
        ref.update(grads)
    return loss


def reference_contraction_solve(cfg):
    """The Picard scheme's iteration loop on the reference regression."""
    problem = problem_by_name(cfg.problem, cfg.dim, cfg.overrides)
    dim, dim_y = problem.sde.dim, problem.gen.dim_y
    base = RngStream(cfg.seed)
    eval_points = sample_mu0(problem, RngStream(cfg.seed, stream_id=1),
                             cfg.m_err)

    def previous(x):
        return np.zeros((len(x), dim_y)), np.zeros((len(x), dim_y, dim))

    params = Mlp.init(dim, dim_y, cfg.hidden_widths(),
                      base.substream(0)).parameters
    trace = []
    for n in range(1, cfg.n_iters + 1):
        iter_stream = base.substream(n)
        x0 = sample_mu0(problem, iter_stream.substream(0), cfg.m_samples)
        fk = sample_fk_batch(problem, cfg.params, x0, 1, cfg.dt,
                             iter_stream.substream(1))
        target_u, target_ubar = r_sample_batch(problem, cfg.params, previous,
                                               fk)
        if n > 1 and not cfg.warm_start:
            params = Mlp.init(dim, dim_y, cfg.hidden_widths(),
                              base.substream(0).substream(n)).parameters
        ref = ReferenceAdam(params, cfg.base_lr, cfg.lr_decay,
                            cfg.lr_decay_period)
        loss = reference_train_regression(ref, dim_y, x0, target_u,
                                          target_ubar, cfg.train_steps)
        params = ref.params
        frozen = Mlp(dim, dim_y, params[0::2], params[1::2])
        previous = frozen
        du, dubar = _rel_errors_at(frozen, problem, eval_points)
        trace.append((n, loss, du, dubar))
    return params, trace


def reference_residual(net, problem, params, x0, fk, weight_e, weight_g,
                       m_starts, m_inner):
    gen = problem.gen
    a, a_z = params.discount_y, params.discount_z
    dy, d = net.dim_y, net.dim_x
    m_total = m_starts * m_inner

    acts0, pre0 = reference_forward(net, x0)
    u0, ubar0 = net._split(acts0[-1])

    acts_e, pre_e = reference_forward(net, fk.x_at_e)
    u_e, z_e = net._split(acts_e[-1])
    f_e = gen.f(fk.x_at_e, u_e, z_e)
    phi1 = (f_e + a * u_e) * weight_e[:, None]
    r1_a, r1_b = _half_residuals(u0, phi1, m_starts, m_inner)
    q1 = _half_upstream(r1_a, r1_b, m_starts, m_inner)
    q1 *= weight_e[:, None]
    d_u = np.einsum("mi,mij->mj", q1, gen.f_y(fk.x_at_e, u_e, z_e)) + a * q1
    d_ubar = np.einsum("mi,mijk->mjk", q1, gen.f_z(fk.x_at_e, u_e, z_e))
    delta_e = np.concatenate([d_u, d_ubar.reshape(m_total, dy * d)], axis=1)
    grads = reference_backprop(net, acts_e, pre_e, delta_e)

    acts_g, pre_g = reference_forward(net, fk.x_at_g)
    u_g, z_g = net._split(acts_g[-1])
    f_g = gen.f(fk.x_at_g, u_g, z_g)
    scaled = (f_g + a_z * u_g) * weight_g[:, None]
    phi2 = scaled[:, :, None] * fk.malliavin_at_g[:, None, :]
    r2_a, r2_b = _half_residuals(ubar0, phi2, m_starts, m_inner)
    q2 = _half_upstream(r2_a, r2_b, m_starts, m_inner)
    q2 = np.einsum("mik,mk->mi", q2.reshape(m_total, dy, d),
                   fk.malliavin_at_g)
    q2 *= weight_g[:, None]
    d_u = np.einsum("mi,mij->mj", q2, gen.f_y(fk.x_at_g, u_g, z_g)) + a_z * q2
    d_ubar = np.einsum("mi,mijk->mjk", q2, gen.f_z(fk.x_at_g, u_g, z_g))
    delta_g = np.concatenate([d_u, d_ubar.reshape(m_total, dy * d)], axis=1)
    for acc, g in zip(grads, reference_backprop(net, acts_g, pre_g, delta_g)):
        acc += g

    loss = float((np.sum(r1_a * r1_b) + np.sum(r2_a * r2_b)) / m_starts)
    delta0 = np.concatenate([r1_a + r1_b,
                             (r2_a + r2_b).reshape(m_starts, dy * d)], axis=1)
    delta0 /= m_starts
    for acc, g in zip(grads, reference_backprop(net, acts0, pre0, delta0)):
        acc += g
    return loss, grads


def reference_direct_solve(cfg):
    """The direct scheme's epoch loop on the reference residual step."""
    problem = problem_by_name(cfg.problem, cfg.dim, cfg.overrides)
    dim, dim_y = problem.sde.dim, problem.gen.dim_y
    base = RngStream(cfg.seed)
    eval_points = sample_mu0(problem, RngStream(cfg.seed, stream_id=1),
                             cfg.m_err)
    net = Mlp.init(dim, dim_y, cfg.hidden_widths(), base.substream(0))
    state = AdamState.init(net, cfg.base_lr, cfg.lr_decay, cfg.lr_decay_period)
    trace = []
    for epoch in range(1, cfg.n_epochs + 1):
        ep_stream = base.substream(epoch)
        x0 = sample_mu0(problem, ep_stream.substream(0), cfg.m_starts)
        fk = sample_fk_batch(problem, cfg.params, x0, cfg.m_inner, cfg.dt,
                             ep_stream.substream(1))
        weight_e, weight_g = one_draw_weights(cfg.params, fk)
        for _ in range(cfg.steps_per_epoch):
            loss, grads = reference_residual(
                net, problem, cfg.params, x0, fk, weight_e, weight_g,
                cfg.m_starts, cfg.m_inner)
            adam_step(net, flatten(grads), state)
        du, dubar = _rel_errors_at(net, problem, eval_points)
        trace.append(TraceRow(epoch, loss, du, dubar, 0.0))
    return net, trace


DIMS = (1, 2, 3)
WIDTHS = ((9,), (21, 21), (5, 7, 3))


def direct_batch(dim, m_starts, m_inner, seed):
    problem = problem_by_name("arctan-const-sigma", dim, {"kz": 2.0})
    params = SchemeParams()
    x0 = RngStream(seed).generator().normal(0.0, 2.0, size=(m_starts, dim))
    fk = sample_fk_batch(problem, params, x0, m_inner, None,
                         RngStream(seed + 1))
    return problem, params, x0, fk, *one_draw_weights(params, fk)


def assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def flatten(arrays):
    """Per-parameter arrays laid end to end, as ``Mlp.flat`` is."""
    return np.concatenate([np.ravel(a) for a in arrays])


def assert_same_bytes(got, want):
    """``got``, a gradient vector, holds the bytes of the per-parameter
    arrays ``want`` laid end to end; unlike ``assert_array_equal`` this
    tells -0.0 from +0.0."""
    assert got.dtype == np.float64 and got.shape == (sum(
        np.size(w) for w in want),)
    assert got.tobytes() == flatten(want).tobytes()


class TestMlpBuffers:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("hidden", WIDTHS + ((1, 4),))
    def test_forward_and_backprop_match_reference(self, dim, hidden):
        net = Mlp.init(dim, 2, hidden, RngStream(31))
        gen = np.random.default_rng(32)
        x = gen.normal(0.0, 2.0, size=(57, dim))
        delta = gen.normal(size=(57, 2 + 2 * dim))
        keep = delta.copy()
        want_acts, want_pre = reference_forward(net, x)
        want = reference_backprop(net, want_acts, want_pre, delta)
        work, grad = net.workspace(len(x)), net.gradient()
        for _ in range(2):  # a second pass over the same buffers
            acts, pre = net._forward_cached(x, work)
            assert_all_equal(acts, want_acts)
            assert_all_equal(pre, want_pre)
            assert_same_bytes(net.backprop(acts, pre, delta, out=grad), want)
        np.testing.assert_array_equal(delta, keep)
        assert_same_bytes(net.backprop(*net._forward_cached(x), delta,
                                       out=net.gradient()), want)

    @pytest.mark.parametrize("hidden", ((1, 4), (21, 21)))
    def test_backprop_keeps_signed_zeros_of_the_reference(self, hidden):
        net = Mlp.init(2, 1, hidden, RngStream(37))
        gen = np.random.default_rng(38)
        x = gen.normal(size=(64, 2))
        delta = gen.normal(size=(64, 3))
        delta[:, 1] = -0.0  # a whole column of negative zeros
        delta[::3, 2] = -0.0
        delta[1::3, 2] = 0.0
        want = reference_backprop(net, *reference_forward(net, x), delta)
        assert_same_bytes(net.backprop(*net._forward_cached(x), delta,
                                       out=net.gradient()), want)

    @pytest.mark.parametrize("m", (1, 2, 57, 512, 6400))
    @pytest.mark.parametrize("order", ("C", "F"))
    def test_bias_sums_match_the_axis_sum_in_any_layout(self, m, order):
        net = Mlp.init(1, 2, (1, 5), RngStream(39))  # a one-column layer
        gen = np.random.default_rng(m)
        x = gen.normal(size=(m, 1))
        # values over 16 decades, so a change of summation order shows
        delta = gen.normal(size=(m, 4)) * 10.0 ** gen.integers(-8, 8, (m, 4))
        delta = np.asarray(delta, order=order)
        want = reference_backprop(net, *reference_forward(net, x), delta)
        assert_same_bytes(net.backprop(*net._forward_cached(x), delta,
                                       out=net.gradient()), want)

    def test_consecutive_calls_return_independent_arrays(self):
        net = Mlp.init(2, 1, (8, 8), RngStream(33))
        gen = np.random.default_rng(34)
        x1, x2 = gen.normal(size=(40, 2)), gen.normal(size=(40, 2))
        u1, ubar1 = net(x1)
        keep_u, keep_ubar = u1.copy(), ubar1.copy()
        u2, ubar2 = net(x2)
        np.testing.assert_array_equal(u1, keep_u)
        np.testing.assert_array_equal(ubar1, keep_ubar)
        for first, second in ((u1, u2), (ubar1, ubar2), (u1, ubar2)):
            assert not np.shares_memory(first, second)

    def test_r_sample_batch_with_a_net_matches_per_branch_calls(self):
        problem, params, _, fk, weight_e, weight_g = direct_batch(2, 6, 5, 35)
        net = Mlp.init(2, 1, (7,), RngStream(36))
        comp1, comp2 = r_sample_batch(problem, params, net, fk)
        u_e, z_e = net._split(reference_forward(net, fk.x_at_e)[0][-1])
        u_g, z_g = net._split(reference_forward(net, fk.x_at_g)[0][-1])
        gen, a, a_z = problem.gen, params.discount_y, params.discount_z
        want1 = (gen.f(fk.x_at_e, u_e, z_e) + a * u_e) * weight_e[:, None]
        scaled = (gen.f(fk.x_at_g, u_g, z_g) + a_z * u_g) * weight_g[:, None]
        want2 = scaled[:, :, None] * fk.malliavin_at_g[:, None, :]
        np.testing.assert_array_equal(comp1, want1)
        np.testing.assert_array_equal(comp2, want2)


class TestResidualStep:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("hidden", WIDTHS)
    def test_matches_reference_over_steps(self, dim, hidden):
        m_starts, m_inner = 5, 7  # odd: the two halves differ in length
        problem, params, x0, fk, weight_e, weight_g = direct_batch(
            dim, m_starts, m_inner, 40 + dim)
        net = Mlp.init(dim, 1, hidden, RngStream(41))
        ref = net.copy()
        state = AdamState.init(net, 1e-2, 0.9, 1000)
        ref_state = AdamState.init(ref, 1e-2, 0.9, 1000)
        drivers = (bind_driver(problem.gen, fk.x_at_e),
                   bind_driver(problem.gen, fk.x_at_g))
        work = (net.workspace(m_starts), net.workspace(m_starts * m_inner))
        grads = (net.gradient(), net.gradient())
        for _ in range(3):
            loss, grad = _residual_loss_grads(
                net, problem.gen, x0, branches(params, fk), drivers, m_starts,
                m_inner, work, grads)
            want_loss, want = reference_residual(
                ref, problem, params, x0, fk, weight_e, weight_g, m_starts,
                m_inner)
            assert loss == want_loss
            assert grad is grads[0].flat
            assert_same_bytes(grad, want)
            adam_step(net, grad, state)
            adam_step(ref, flatten(want), ref_state)

    def test_three_epoch_solve_matches_reference(self):
        cfg = DirectConfig("arctan-const-sigma", dim=2, n_epochs=3,
                           steps_per_epoch=4, m_starts=12, m_inner=7,
                           m_err=200, seed=52)
        net, trace = reference_direct_solve(cfg)
        res = direct_nn_solve(cfg)
        assert_all_equal(res.net.parameters, net.parameters)
        assert ([(r.n, r.loss, r.rel_err_u, r.rel_err_ubar) for r in res.trace]
                == [(r.n, r.loss, r.rel_err_u, r.rel_err_ubar) for r in trace])


class TestBoundDriver:
    CASES = [(name, dim) for name in PROBLEM_NAMES
             for dim in ((1,) if name == "arctan-tanh-sigma" else DIMS)]

    @pytest.mark.parametrize("name, dim", CASES)
    def test_matches_full_driver(self, name, dim):
        gen = problem_by_name(name, dim).gen
        assert gen.x_terms is not None
        rng = np.random.default_rng(60 + dim)
        x = rng.normal(0.0, 2.0, size=(30, dim))
        bound = bind_driver(gen, x)
        for _ in range(2):
            y = rng.normal(size=(30, 1))
            z = rng.normal(size=(30, 1, dim))
            np.testing.assert_array_equal(bound(y, z), gen.f(x, y, z))

    def test_survives_a_wrapped_driver(self):
        gen = problem_by_name("arctan-const-sigma", 2).gen
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(kwargs)
            return gen.f(*args, **kwargs)

        traced = dataclasses.replace(gen, f=wrapped)
        x = np.random.default_rng(70).normal(size=(9, 2))
        y, z = np.ones((9, 1)), np.ones((9, 1, 2))
        np.testing.assert_array_equal(bind_driver(traced, x)(y, z),
                                      gen.f(x, y, z))
        assert "x_terms" in calls[0]

    def test_generator_without_split_uses_full_driver(self):
        gen = problem_by_name("linear-constant", 1).gen
        plain = dataclasses.replace(gen, f=lambda x, y, z: gen.f(x, y, z),
                                    x_terms=None)
        x, y, z = np.ones((3, 1)), np.full((3, 1), 2.0), np.zeros((3, 1, 1))
        np.testing.assert_array_equal(bind_driver(plain, x)(y, z),
                                      gen.f(x, y, z))


def regression_batch(dim, hidden, m, seed):
    net = Mlp.init(dim, 1, hidden, RngStream(seed))
    gen = np.random.default_rng(seed + 1)
    x = gen.normal(0.0, 2.0, size=(m, dim))
    return net, x, gen.normal(size=(m, 1)), gen.normal(size=(m, 1, dim))


class TestFlatAdam:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("hidden", WIDTHS)
    def test_matches_per_layer_loop(self, dim, hidden):
        net = Mlp.init(dim, 1, hidden, RngStream(80 + dim))
        settings = dict(base_lr=1e-2, decay=0.7, decay_period=350)
        state = AdamState.init(net, **settings)
        ref = ReferenceAdam(net.parameters, **settings)
        gen = np.random.default_rng(81)
        for step in range(1, 2001):  # five schedule boundaries
            scale = 10.0 ** gen.integers(-3, 3)
            grads = [scale * gen.normal(size=p.shape) for p in ref.params]
            adam_step(net, flatten(grads), state)
            ref.update(grads)
            if step % 500 == 0:
                assert state.step == ref.step == step
                assert state.learning_rate == ref.base_lr * ref.decay ** (
                    step // ref.decay_period)
                assert_all_equal(net.parameters, ref.params)
                assert_same_bytes(state.m, ref.m)
                assert_same_bytes(state.v, ref.v)

    def test_rejects_same_count_but_wrong_sizes(self):
        net = Mlp.init(1, 1, (3,), RngStream(82))
        size = net.flat.size
        state = AdamState.init(net, 5e-4, 0.9, 1000)
        keep = net.flat.copy()
        for bad in ([np.zeros(1) for _ in net.parameters],  # a list per layer
                    [np.zeros_like(p) for p in net.parameters],
                    np.ones(size - 1), np.ones(size + 1),
                    np.ones((1, size))):
            with pytest.raises(ValueError):
                adam_step(net, bad, state)
        assert state.step == 0
        assert not state.m.any() and not state.v.any()
        np.testing.assert_array_equal(net.flat, keep)


class TestRegressionLoop:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("hidden", WIDTHS)
    def test_matches_allocating_reference(self, dim, hidden):
        net, x, target_u, target_ubar = regression_batch(dim, hidden, 37,
                                                         90 + dim)
        settings = dict(base_lr=1e-2, decay=0.5, decay_period=40)
        ref = ReferenceAdam(net.parameters, **settings)
        state = AdamState.init(net, **settings)
        loss = _train_regression(net, x, target_u, target_ubar, state, 150)
        want = reference_train_regression(ref, 1, x, target_u, target_ubar,
                                          150)
        assert loss == want
        assert_all_equal(net.parameters, ref.params)
        assert_same_bytes(state.m, ref.m)
        assert_same_bytes(state.v, ref.v)

    @pytest.mark.parametrize("dim", DIMS)
    def test_mse_grad_matches_reference(self, dim):
        net, x, target_u, target_ubar = regression_batch(dim, (5, 7, 3), 23,
                                                         95)
        loss, grad = net._mse_grad(
            x, net._raw_target(len(x), target_u, target_ubar),
            net.workspace(len(x)), net.gradient())
        want_loss, want = reference_mse_grad(net, x, target_u, target_ubar)
        assert loss == want_loss
        assert_same_bytes(grad, want)

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_three_iteration_solve_matches_reference(self, warm_start):
        cfg = NnPicardConfig("arctan-const-sigma", dim=2, n_iters=3,
                             m_samples=48, train_steps=60, m_err=200,
                             warm_start=warm_start, lr_decay_period=25,
                             seed=96)
        params, trace = reference_contraction_solve(cfg)
        res = contraction_nn_solve(cfg)
        assert_all_equal(res.net.parameters, params)
        assert [(r.n, r.loss, r.rel_err_u, r.rel_err_ubar)
                for r in res.trace] == trace


class TestFlatParameters:
    def test_views_share_the_flat_vector(self):
        net = Mlp.init(2, 1, (4, 3), RngStream(100))
        params = net.parameters
        assert [p.shape for p in params] == [(2, 4), (4,), (4, 3), (3,),
                                             (3, 3), (3,)]
        assert net.flat.size == sum(p.size for p in params)
        assert all(a is b for a, b in zip(params, [p for pair in zip(
            net.weights, net.biases) for p in pair]))
        np.testing.assert_array_equal(
            net.flat, np.concatenate([p.ravel() for p in params]))
        for p in params:
            assert np.shares_memory(p, net.flat)

    def test_parameter_write_reaches_flat_and_forward(self):
        net = Mlp.init(2, 1, (4,), RngStream(101))
        x = np.random.default_rng(102).normal(size=(6, 2))
        before_u, before_ubar = net(x)
        before = net.flat.copy()
        net.parameters[3][1] += 0.5  # the output bias of ubar[:, 0, 0]
        assert np.flatnonzero(net.flat != before).tolist() == [2 * 4 + 4
                                                               + 4 * 3 + 1]
        after_u, after_ubar = net(x)
        np.testing.assert_array_equal(after_u, before_u)
        np.testing.assert_array_equal(after_ubar[:, 0, 1],
                                      before_ubar[:, 0, 1])
        np.testing.assert_allclose(after_ubar[:, 0, 0],
                                   before_ubar[:, 0, 0] + 0.5, rtol=1e-14)

    def test_copy_is_independent_both_ways(self):
        net = Mlp.init(1, 1, (4,), RngStream(103))
        dup = net.copy()
        assert not np.shares_memory(dup.flat, net.flat)
        np.testing.assert_array_equal(dup.flat, net.flat)
        keep = net.flat.copy()
        dup.flat += 1.0
        np.testing.assert_array_equal(net.flat, keep)
        net.weights[0][0, 0] = 7.0
        assert dup.weights[0][0, 0] != 7.0

    def test_constructor_does_not_alias_caller_arrays(self):
        weights = [np.ones((1, 2)), np.full((2, 2), 2.0)]
        biases = [np.zeros(2), np.zeros(2)]
        net = Mlp(1, 1, weights, biases)
        for given in weights + biases:
            assert not np.shares_memory(given, net.flat)
        net.flat[:] = -1.0
        np.testing.assert_array_equal(weights[0], np.ones((1, 2)))
        np.testing.assert_array_equal(biases[1], np.zeros(2))
        weights[1][0, 0] = 9.0
        assert net.weights[1][0, 0] == -1.0

    def test_constructor_takes_lists_and_ints_as_float64(self):
        net = Mlp(1, 1, [[[1, -1]], [[1, 2], [3, 4]]], [[0, 0], [1, 0]])
        assert net.flat.dtype == np.float64
        assert [p.shape for p in net.parameters] == [(1, 2), (2,), (2, 2),
                                                     (2,)]
        u, ubar = net(np.array([[1.0]]))
        np.testing.assert_array_equal(u, [[2.0]])
        np.testing.assert_array_equal(ubar, [[[2.0]]])

    def test_adam_moments_are_flat_vectors(self):
        net = Mlp.init(3, 2, (5, 4), RngStream(104))
        state = AdamState.init(net, 5e-4, 0.9, 1000)
        for moment in (state.m, state.v):
            assert moment.dtype == np.float64
            assert moment.shape == net.flat.shape
            assert not np.shares_memory(moment, net.flat)
        assert not np.shares_memory(state.m, state.v)
        x = np.random.default_rng(105).normal(size=(9, 3))
        _, grad = net._mse_grad(
            x, net._raw_target(9, np.ones((9, 2)), np.ones((9, 2, 3))),
            net.workspace(9), net.gradient())
        adam_step(net, grad, state)
        np.testing.assert_array_equal(state.m, (1 - 0.9) * grad)
        assert state.v.any()

    def test_backprop_writes_into_the_given_vector(self):
        net = Mlp.init(2, 1, (6,), RngStream(106))
        x = np.random.default_rng(107).normal(size=(11, 2))
        delta = np.random.default_rng(108).normal(size=(11, 3))
        out = net.gradient()
        out.flat[:] = np.nan
        parts = list(out.parts)
        got = net.backprop(*net._forward_cached(x), delta, out=out)
        assert got is out.flat
        assert np.isfinite(out.flat).all()
        assert all(a is b for a, b in zip(out.parts, parts))
        want = reference_backprop(net, *reference_forward(net, x), delta)
        assert_same_bytes(got, want)
        assert_all_equal(out.parts, want)

    def test_gradient_views_follow_the_parameter_layout(self):
        net = Mlp.init(3, 2, (5, 4), RngStream(110))
        grad = net.gradient()
        assert grad.flat.shape == net.flat.shape
        assert not np.shares_memory(grad.flat, net.flat)
        assert [g.shape for g in grad.parts] == [p.shape
                                                 for p in net.parameters]
        grad.flat[:] = np.arange(grad.flat.size)
        np.testing.assert_array_equal(flatten(grad.parts), grad.flat)
        other = net.gradient()
        assert not np.shares_memory(other.flat, grad.flat)

    def test_old_layout_checkpoint_resumes_bit_exactly(self, tmp_path):
        x = np.linspace(-1, 1, 16)[:, None]
        target_u, target_ubar = np.sin(x), np.cos(x)[:, :, None]
        settings = dict(base_lr=1e-3, decay=0.8, decay_period=7)
        start = Mlp.init(1, 1, (5, 4), RngStream(109)).parameters
        first = ReferenceAdam(start, **settings)
        reference_train_regression(first, 1, x, target_u, target_ubar, 25)
        # training goes on from the saved net with a fresh optimiser
        straight = ReferenceAdam(first.params, **settings)
        reference_train_regression(straight, 1, x, target_u, target_ubar, 15)

        # one independent array per parameter and moment, as written
        # before the flat layout; the optimiser keys are not read
        payload = {"dims": np.array([1, 1, 3]),
                   "adam_meta": np.array([first.step, 1e-3, 0.8, 7, 0.9,
                                          0.999, 1e-8])}
        for k in range(3):
            payload[f"w{k}"] = first.params[2 * k]
            payload[f"b{k}"] = first.params[2 * k + 1]
        for k in range(6):
            payload[f"m{k}"], payload[f"v{k}"] = first.m[k], first.v[k]
        np.savez(tmp_path / "old.npz", **payload)

        net = load_checkpoint(tmp_path / "old.npz")
        assert_all_equal(net.parameters, first.params)
        state = AdamState.init(net, **settings)
        target = net._raw_target(len(x), target_u, target_ubar)
        work, grad = net.workspace(len(x)), net.gradient()
        for _ in range(15):
            _, flat_grad = net._mse_grad(x, target, work, grad)
            adam_step(net, flat_grad, state)
        assert_all_equal(net.parameters, straight.params)
        assert_same_bytes(state.m, straight.m)
        assert_same_bytes(state.v, straight.v)


class TestAllocations:
    def test_training_step_allocates_no_layer_sized_buffer(self):
        rows, width = 512, 21
        net, x, target_u, target_ubar = regression_batch(1, (width, width),
                                                         rows, 120)
        target = net._raw_target(rows, target_u, target_ubar)
        work, grad = net.workspace(rows), net.gradient()
        state = AdamState.init(net, 5e-4, 0.9, 1000)

        def step():
            _, g = net._mse_grad(x, target, work, grad)
            adam_step(net, g, state)

        step()  # warm-up
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.step == 21
        # every layer-sized array of a step lives in the reused buffers
        assert peak - start < rows * width * np.dtype(float).itemsize
