"""Neural Picard and direct schemes plus the relative-error metric."""
import dataclasses

import numpy as np
import pytest

from infbsde import (AdamState, DirectConfig, Grid, GridFunction, Mlp,
                     NnConfig, NnPicardConfig, NonFiniteValue, RngStream,
                     contraction_nn_solve, direct_nn_solve, nn_schemes,
                     problem_by_name)
from infbsde.nn_schemes import _descend, _rel_errors_at, _train_regression
from test_picard_grid import BAD_RUNS, build_run

LINEAR = problem_by_name("linear-constant", 1)


def start_points(problem, m, seed):
    """``m`` draws of the problem's start law."""
    return RngStream(seed).generator().normal(0.0, problem.mu0_std,
                                              (m, problem.sde.dim))


def constant_pair(u, ubar):
    """The candidate equal to (u, [[ubar]]) everywhere, in one dimension."""
    def w(x):
        return np.full((len(x), 1), u), np.full((len(x), 1, 1), ubar)
    return w


class TestConfigs:
    def test_default_hidden_widths_track_dimension(self):
        assert NnPicardConfig("linear-constant").hidden_widths() == (21, 21)
        assert DirectConfig("linear-constant", dim=3).hidden_widths() == (23, 23)
        assert NnPicardConfig("linear-constant",
                              hidden=(4, 5, 6)).hidden_widths() == (4, 5, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            NnPicardConfig("linear-constant", m_samples=0)
        with pytest.raises(ValueError):
            NnPicardConfig("linear-constant", n_iters=0)
        with pytest.raises(ValueError):
            DirectConfig("linear-constant", m_inner=0)
        # the paired-halves loss needs two inner draws per start
        with pytest.raises(ValueError):
            DirectConfig("linear-constant", m_inner=1)
        with pytest.raises(ValueError):
            DirectConfig("linear-constant", steps_per_epoch=-1)
        # zero training steps per epoch is a legal (no-op) setting
        DirectConfig("linear-constant", steps_per_epoch=0)

    @pytest.mark.parametrize("cls", [NnPicardConfig, DirectConfig])
    @pytest.mark.parametrize("kwargs", [
        {"m_err": 0}, {"hidden": (0,)}, {"hidden": (8, -1)}])
    def test_shared_bounds(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls("linear-constant", **kwargs)

    @pytest.mark.parametrize("cls", [NnPicardConfig, DirectConfig])
    @pytest.mark.parametrize("settings, error", BAD_RUNS)
    def test_rejects_what_the_cli_rejects(self, cls, settings, error):
        with pytest.raises(error):
            build_run(cls, settings)

    def test_train_steps_bound(self):
        with pytest.raises(ValueError):
            NnPicardConfig("linear-constant", train_steps=-1)
        NnPicardConfig("linear-constant", train_steps=0)

    def test_shared_fields_live_on_the_bases(self):
        shared = [f.name for f in dataclasses.fields(NnConfig)]
        assert shared == ["problem", "dim", "overrides", "params", "dt",
                          "seed", "hidden", "m_err"]
        for cls in (NnPicardConfig, DirectConfig):
            names = [f.name for f in dataclasses.fields(cls)]
            assert names[:len(shared)] == shared
            # the start-law width is a problem override only
            assert "mu0_std" not in names


class TestRelativeErrors:
    def test_exact_candidate_is_zero(self):
        x = start_points(LINEAR, 64, 1)
        assert _rel_errors_at(LINEAR.analytic, LINEAR, x) == (0.0, 0.0)

    def test_constant_offset_ratio(self):
        # reference u = 3/2 and ubar = 0; offset 0.3 gives exactly 0.2
        du, dubar = _rel_errors_at(constant_pair(1.8, 0.0), LINEAR,
                                   start_points(LINEAR, 64, 2))
        assert du == pytest.approx(0.2, abs=1e-14)
        assert dubar == 0.0

    def test_zero_reference_component_conventions(self):
        x = start_points(LINEAR, 64, 3)
        du, dubar = _rel_errors_at(constant_pair(0.0, 0.0), LINEAR, x)
        assert du == pytest.approx(1.0, abs=1e-14)
        assert dubar == 0.0
        _, dubar_off = _rel_errors_at(constant_pair(1.5, 0.7), LINEAR, x)
        assert dubar_off == np.inf

    def test_grid_function_candidate_accepted(self):
        g = Grid(dim=1, n_half=2, mesh=1.0)
        phi = GridFunction.zero(g, 1)
        du, dubar = _rel_errors_at(phi, LINEAR, start_points(LINEAR, 32, 4))
        assert du == pytest.approx(1.0, abs=1e-14) and dubar == 0.0

    def test_requires_analytic_solution(self):
        # a trace without a known solution reports nan errors
        blind = dataclasses.replace(LINEAR, analytic=None)
        net = Mlp.init(1, 1, (4,), RngStream(5))
        du, dubar = _rel_errors_at(net, blind, start_points(LINEAR, 16, 5))
        assert np.isnan(du) and np.isnan(dubar)

    def test_deterministic_in_rng(self):
        problem = problem_by_name("arctan-const-sigma", 2)
        net = Mlp.init(2, 1, (6,), RngStream(6))
        a = _rel_errors_at(net, problem, start_points(problem, 128, 7))
        b = _rel_errors_at(net, problem, start_points(problem, 128, 7))
        assert np.isfinite(a).all() and a == b


class TestContractionScheme:
    def test_linear_level(self):
        cfg = NnPicardConfig("linear-constant", n_iters=3, m_samples=512,
                             train_steps=1200, seed=5)
        res = contraction_nn_solve(cfg)
        pts = RngStream(99).generator().normal(0, 2, size=(1000, 1))
        u, _ = res.net(pts)
        assert np.abs(u - 1.5).mean() < 0.1
        assert [r.n for r in res.trace] == [1, 2, 3]
        assert all(np.isfinite(r.loss) for r in res.trace)
        assert all(r.rel_err_u < 0.08 for r in res.trace)
        # the reference gradient block vanishes identically here
        assert all(r.rel_err_ubar == np.inf for r in res.trace)

    def test_zero_source_trains_to_zero(self):
        cfg = NnPicardConfig("linear-constant", overrides={"c0": 0.0},
                             n_iters=1, m_samples=256, train_steps=800,
                             seed=6)
        res = contraction_nn_solve(cfg)
        pts = RngStream(98).generator().normal(0, 2, size=(500, 1))
        u, _ = res.net(pts)
        assert np.abs(u).mean() < 0.02

    def test_error_envelope_under_contraction(self):
        # monotonicity 1, discount 2: factor 1/2 per iteration plus noise
        cfg = NnPicardConfig("linear-constant", overrides={"mu": 1.0},
                             n_iters=6, m_samples=512, train_steps=1200,
                             seed=7)
        res = contraction_nn_solve(cfg)
        errs = [r.rel_err_u for r in res.trace]
        assert errs[0] == pytest.approx(0.5, abs=0.05)
        for prev, cur in zip(errs, errs[1:]):
            assert cur <= 0.6 * prev + 0.05
        assert errs[-1] < 0.08

    def test_picard_trace_recursion(self):
        # e_n <= kappa_2 * e_{n-1} + 2 * r_n with kappa_2 from the analysis
        # module and r_n the measured regression residual per iteration
        from infbsde import (brownian_cp_constants, kappa_p, r_sample_batch,
                             sample_fk_batch)

        cfg = NnPicardConfig("linear-constant", overrides={"mu": 1.8},
                             n_iters=4, m_samples=512, train_steps=1500,
                             seed=12)
        res = contraction_nn_solve(cfg)
        problem = cfg.built_problem
        c2, _ = brownian_cp_constants(2.0, 0.0, 1, cfg.params.exp_rate,
                                      cfg.params.gamma_rate)
        kappa2 = kappa_p(problem.gen, cfg.params, 2.0, c2)
        assert kappa2 < 0.25

        pts = RngStream(777).generator().normal(0, 2.0, size=(200, 1))
        star_u = problem.analytic.u(pts)
        star_ub = problem.analytic.ubar(pts)

        def joint_l2(au, aub, bu, bub):
            return np.sqrt(np.mean(np.sum((au - bu) ** 2, axis=1)
                                   + np.sum((aub - bub) ** 2, axis=(1, 2))))

        cands = [constant_pair(0.0, 0.0), *res.nets]
        for n in range(1, 5):
            cur_u, cur_ub = cands[n](pts)
            e_n = joint_l2(cur_u, cur_ub, star_u, star_ub)
            prev_u, prev_ub = cands[n - 1](pts)
            e_prev = joint_l2(prev_u, prev_ub, star_u, star_ub)
            phi_u = np.empty_like(cur_u)
            phi_ub = np.empty_like(cur_ub)
            for i, x in enumerate(pts):
                fk = sample_fk_batch(problem, cfg.params, x, 4000, None,
                                     RngStream(9000 + i))
                c1m, c2m = r_sample_batch(problem, cfg.params, cands[n - 1],
                                          fk)
                phi_u[i] = c1m.mean(axis=0)
                phi_ub[i] = c2m.mean(axis=0)
            residual = joint_l2(cur_u, cur_ub, phi_u, phi_ub)
            assert e_n <= kappa2 * e_prev + 2 * residual

    def test_deterministic(self):
        cfg = NnPicardConfig("linear-constant", n_iters=2, m_samples=64,
                             train_steps=50, seed=8)
        a = contraction_nn_solve(cfg)
        b = contraction_nn_solve(cfg)
        assert [r.loss for r in a.trace] == [r.loss for r in b.trace]
        for pa, pb in zip(a.net.parameters, b.net.parameters):
            np.testing.assert_array_equal(pa, pb)

    def test_cold_start_differs_from_warm(self):
        base = dict(problem="linear-constant", n_iters=2, m_samples=64,
                    train_steps=50, seed=8)
        warm = contraction_nn_solve(NnPicardConfig(**base, warm_start=True))
        cold = contraction_nn_solve(NnPicardConfig(**base, warm_start=False))
        assert any(not np.array_equal(a, b) for a, b in
                   zip(warm.net.parameters, cold.net.parameters))

    def test_returns_iterates(self):
        cfg = NnPicardConfig("linear-constant", n_iters=3, m_samples=64,
                             train_steps=30, seed=9)
        res = contraction_nn_solve(cfg)
        assert len(res.nets) == 3 and res.nets[-1] is not res.net
        for a, b in zip(res.nets[-1].parameters, res.net.parameters):
            np.testing.assert_array_equal(a, b)

    def test_zero_steps_leave_nets_at_initialisation(self):
        cfg = NnPicardConfig("linear-constant", n_iters=2, m_samples=16,
                             train_steps=0, seed=9)
        res = contraction_nn_solve(cfg)
        fresh = Mlp.init(1, 1, cfg.hidden_widths(),
                         RngStream(cfg.seed).substream(0))
        for net in (*res.nets, res.net):
            np.testing.assert_array_equal(net.flat, fresh.flat)
        assert [r.n for r in res.trace] == [1, 2]
        assert all(np.isfinite(r.loss) for r in res.trace)

    def test_diverging_learning_rate_raises(self):
        cfg = NnPicardConfig("linear-constant", n_iters=1, m_samples=64,
                             train_steps=5, base_lr=1e60, seed=10)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteValue):
                contraction_nn_solve(cfg)


class TestDescent:
    """The one ADAM loop both schemes train with."""

    @pytest.mark.parametrize("steps", [0, 3])
    def test_one_loss_per_step_and_one_without_steps(self, monkeypatch,
                                                     steps):
        made = []
        monkeypatch.setattr(nn_schemes, "adam_step",
                            lambda net, grad, state: made.append(grad))
        losses = iter([3.0, 2.0, 1.0])
        taken = []

        def loss_grad():
            taken.append(next(losses))
            return taken[-1], np.zeros(1)

        state = AdamState(0, np.zeros(1), np.zeros(1), 1e-3, 1.0, 1)
        assert _descend(None, state, steps, loss_grad) == taken[-1]
        assert len(taken) == max(steps, 1) and len(made) == steps

    @pytest.mark.parametrize("steps", [0, 3])
    def test_infinite_target_raises_before_any_step(self, steps):
        net = Mlp.init(1, 1, (4,), RngStream(30))
        keep = net.flat.copy()
        x = start_points(LINEAR, 8, 31)
        state = AdamState.init(net, 1e-3, 1.0, 10)
        # no backprop of the infinite residual, so numpy does not warn
        with pytest.raises(NonFiniteValue, match="at step 0"):
            _train_regression(net, x, np.full((8, 1), np.inf),
                              np.zeros((8, 1, 1)), state, steps)
        np.testing.assert_array_equal(net.flat, keep)
        assert state.step == 0


class TestDirectScheme:
    def test_loss_gradient_matches_finite_differences(self):
        from infbsde import SchemeParams, bind_driver, sample_fk_batch
        from infbsde.fixedpoint import one_draw_weights
        from infbsde.nn_schemes import _residual_loss_grads

        problem = problem_by_name("arctan-const-sigma", 2, {"kz": 2.0})
        params = SchemeParams()
        m_starts, m_inner = 3, 4
        net = Mlp.init(2, 1, (5, 4), RngStream(21))
        x0 = RngStream(22).generator().normal(0.0, 2.0, size=(m_starts, 2))
        fk = sample_fk_batch(problem, params, x0, m_inner, None, RngStream(23))
        weight_e, weight_g = one_draw_weights(params, fk)
        drivers = (bind_driver(problem.gen, fk.x_at_e),
                   bind_driver(problem.gen, fk.x_at_g))
        work = (net.workspace(m_starts), net.workspace(m_starts * m_inner))

        def at(*args):
            grads = (net.gradient(), net.gradient())
            return _residual_loss_grads(net, problem, params, x0, fk,
                                        weight_e, weight_g, m_starts, m_inner,
                                        drivers, work, grads)

        _, grad = at()  # laid out as net.flat
        assert grad.shape == net.flat.shape
        h, worst = 1e-6, 0.0
        for idx in range(net.flat.size):
            keep = net.flat[idx]
            net.flat[idx] = keep + h
            up = at()[0]
            net.flat[idx] = keep - h
            down = at()[0]
            net.flat[idx] = keep
            worst = max(worst, abs((up - down) / (2 * h) - grad[idx]))
        assert worst < 1e-4

    def test_driver_without_jacobians_rejected(self, monkeypatch):
        stripped = dataclasses.replace(
            LINEAR, gen=dataclasses.replace(LINEAR.gen, f_y=None, f_z=None))
        monkeypatch.setattr("infbsde.nn_schemes.problem_by_name",
                            lambda *a, **k: stripped)
        from infbsde import MissingDriverDerivatives
        cfg = DirectConfig("linear-constant", n_epochs=1, steps_per_epoch=1,
                           m_starts=4, m_inner=2, seed=0)
        with pytest.raises(MissingDriverDerivatives):
            direct_nn_solve(cfg)

    def test_error_decreases(self):
        cfg = DirectConfig("linear-constant", n_epochs=12, steps_per_epoch=80,
                           m_starts=256, m_inner=40, seed=8)
        res = direct_nn_solve(cfg)
        errs = [r.rel_err_u for r in res.trace]
        assert errs[-1] < 0.08
        assert errs[-1] < errs[0] / 5

    def test_zero_steps_leave_net_at_initialisation(self):
        cfg = DirectConfig("linear-constant", n_epochs=2, steps_per_epoch=0,
                           m_starts=16, m_inner=4, seed=9)
        res = direct_nn_solve(cfg)
        fresh = Mlp.init(1, 1, cfg.hidden_widths(),
                         RngStream(cfg.seed).substream(0))
        for a, b in zip(res.net.parameters, fresh.parameters):
            np.testing.assert_array_equal(a, b)
        assert len(res.trace) == 2

    def test_deterministic(self):
        cfg = DirectConfig("linear-constant", n_epochs=2, steps_per_epoch=20,
                           m_starts=32, m_inner=5, seed=10)
        a = direct_nn_solve(cfg)
        b = direct_nn_solve(cfg)
        assert [r.loss for r in a.trace] == [r.loss for r in b.trace]
        for pa, pb in zip(a.net.parameters, b.net.parameters):
            np.testing.assert_array_equal(pa, pb)
