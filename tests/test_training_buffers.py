"""The direct scheme's reused buffers and bound drivers change no number.

The references below are the allocating forward pass, backprop and
residual step that the buffered ones replaced; every comparison is exact.
"""
import dataclasses

import numpy as np
import pytest

from infbsde import (DirectConfig, Mlp, PROBLEM_NAMES, RngStream, SchemeParams,
                     adam_step, bind_driver, direct_nn_solve, problem_by_name,
                     r_sample_batch, sample_fk_batch)
from infbsde.fixedpoint import one_draw_weights
from infbsde.neural import AdamState
from infbsde.nn_schemes import (TraceRow, _half_residuals, _half_upstream,
                                _residual_loss_grads, _sample_mu0,
                                _trace_errors)


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
    problem = cfg.build_problem()
    dim, dim_y = problem.sde.dim, problem.gen.dim_y
    base = RngStream(cfg.seed)
    eval_points = _sample_mu0(RngStream(cfg.seed, stream_id=1).generator(),
                              cfg.m_err, dim, problem.mu0_std)
    net = Mlp.init(dim, dim_y, cfg.hidden_widths(), base.substream(0))
    state = AdamState.init(net, cfg.base_lr, cfg.lr_decay, cfg.lr_decay_period)
    trace = []
    for epoch in range(1, cfg.n_epochs + 1):
        ep_stream = base.substream(epoch)
        x0 = _sample_mu0(ep_stream.substream(0).generator(), cfg.m_starts, dim,
                         problem.mu0_std)
        fk = sample_fk_batch(problem, cfg.params,
                             np.repeat(x0, cfg.m_inner, axis=0),
                             cfg.m_starts * cfg.m_inner, cfg.dt,
                             ep_stream.substream(1))
        weight_e, weight_g = one_draw_weights(cfg.params, fk)
        for _ in range(cfg.steps_per_epoch):
            loss, grads = reference_residual(
                net, problem, cfg.params, x0, fk, weight_e, weight_g,
                cfg.m_starts, cfg.m_inner)
            adam_step(net, grads, state)
        du, dubar = _trace_errors(net, problem, eval_points)
        trace.append(TraceRow(epoch, loss, du, dubar, 0.0))
    return net, trace


DIMS = (1, 2, 3)
WIDTHS = ((9,), (21, 21), (5, 7, 3))


def direct_batch(dim, m_starts, m_inner, seed):
    problem = problem_by_name("arctan-const-sigma", dim, {"kz": 2.0})
    params = SchemeParams()
    x0 = RngStream(seed).generator().normal(0.0, 2.0, size=(m_starts, dim))
    fk = sample_fk_batch(problem, params, np.repeat(x0, m_inner, axis=0),
                         m_starts * m_inner, None, RngStream(seed + 1))
    return problem, params, x0, fk, *one_draw_weights(params, fk)


def assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


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
        work = net.workspace(len(x))
        for _ in range(2):  # a second pass over the same buffers
            acts, pre = net._forward_cached(x, work)
            assert_all_equal(acts, want_acts)
            assert_all_equal(pre, want_pre)
            assert_all_equal(net.backprop(acts, pre, delta), want)
        np.testing.assert_array_equal(delta, keep)
        assert_all_equal(net.backprop(*net._forward_cached(x), delta), want)

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
        state = AdamState.init(net, base_lr=1e-2)
        ref_state = AdamState.init(ref, base_lr=1e-2)
        drivers = (bind_driver(problem.gen, fk.x_at_e),
                   bind_driver(problem.gen, fk.x_at_g))
        work = (net.workspace(m_starts), net.workspace(m_starts * m_inner))
        for _ in range(3):
            loss, grads = _residual_loss_grads(
                net, problem, params, x0, fk, weight_e, weight_g, m_starts,
                m_inner, drivers, work)
            want_loss, want = reference_residual(
                ref, problem, params, x0, fk, weight_e, weight_g, m_starts,
                m_inner)
            assert loss == want_loss
            assert_all_equal(grads, want)
            adam_step(net, grads, state)
            adam_step(ref, want, ref_state)

    def test_without_bound_drivers_or_buffers(self):
        problem, params, x0, fk, weight_e, weight_g = direct_batch(1, 4, 6, 50)
        net = Mlp.init(1, 1, (6,), RngStream(51))
        args = (net, problem, params, x0, fk, weight_e, weight_g, 4, 6)
        loss, grads = _residual_loss_grads(*args)
        want_loss, want = reference_residual(*args)
        assert loss == want_loss
        assert_all_equal(grads, want)

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
