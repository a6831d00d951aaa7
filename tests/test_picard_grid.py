"""Grid Picard iteration: exactness, noise level, contraction, rate fit."""
import numpy as np
import pytest

from infbsde import (FitUnderdetermined, GridFunction, GridSolveConfig,
                     NonFiniteValue, NonPositiveRate, RngStream, SchemeParams,
                     UnknownProblem, fit_rate_slope, picard_step,
                     problem_by_name, r_sample_batch, rate_study,
                     sample_fk_batch, solve)
from infbsde import picard_grid


def config(**kwargs):
    base = dict(problem="linear-constant", dim=1, n_half=2, half_width=1.0,
                m_samples=4000, n_iters=1, seed=11)
    base.update(kwargs)
    return GridSolveConfig(**base)


# Run settings that every config class rejects at construction, as the
# command line does; the rates go to SchemeParams
RATES = ("discount_y", "discount_z", "exp_rate", "gamma_rate")
BAD_RUNS = [
    pytest.param({"discount_y": 0.0}, NonPositiveRate, id="discount_y0"),
    pytest.param({"exp_rate": -1.0}, NonPositiveRate, id="exp_rate-1"),
    pytest.param({"gamma_rate": np.nan}, NonPositiveRate, id="gamma_rate-nan"),
    pytest.param({"discount_z": np.inf}, NonPositiveRate, id="discount_z-inf"),
    *[pytest.param({"problem": "arctan-tanh-sigma", "dt": dt}, ValueError,
                   id=f"tanh-dt-{dt}") for dt in (None, 0.0, np.nan)],
    pytest.param({"problem": "no-such-problem"}, UnknownProblem,
                 id="unknown-problem"),
    pytest.param({"dim": 0}, ValueError, id="dim0"),
    pytest.param({"seed": -1}, ValueError, id="seed-1"),
]


def build_run(cls, settings):
    """``cls`` on ``arctan-const-sigma`` with the flat ``settings``."""
    rates = {k: v for k, v in settings.items() if k in RATES}
    rest = {k: v for k, v in settings.items() if k not in RATES}
    return cls(**{"problem": "arctan-const-sigma", **rest,
                  "params": SchemeParams(**rates)})


class TestConfig:
    def test_mesh(self):
        assert config(n_half=10, half_width=3.0).mesh == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            config(m_samples=1)
        with pytest.raises(ValueError):
            config(n_iters=0)

    def test_needs_a_reporting_layer(self):
        # the mesh is half_width / n_half
        with pytest.raises(ValueError):
            config(n_half=0)

    @pytest.mark.parametrize("settings, error", [
        *BAD_RUNS,
        *[pytest.param({"half_width": value}, ValueError,
                       id=f"half_width{value}")
          for value in (0.0, -1.0, np.inf, np.nan)],
        pytest.param({"pad": -1}, ValueError, id="pad-1"),
        # a finite positive bound and a finite non-negative degree
        *[pytest.param({"truncation": pair}, ValueError,
                       id=f"truncation{pair[0]},{pair[1]}")
          for pair in ((-1.0, 1.0), (0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
                       (1.0, -1.0), (1.0, np.nan), (1.0, np.inf))]])
    def test_rejects_what_the_cli_rejects(self, settings, error):
        with pytest.raises(error):
            build_run(GridSolveConfig, settings)


class TestSingleStep:
    def test_first_iterate_level(self):
        # from the zero candidate each node estimates c0/a = 3/2
        result = solve(config())
        assert np.abs(result.final.u - 1.5).max() < 0.04
        assert np.abs(result.final.ubar).max() < 0.25

    def test_zero_source_stays_zero(self):
        result = solve(config(overrides={"c0": 0.0}, n_iters=3))
        assert np.all(result.final.u == 0.0)
        assert np.all(result.final.ubar == 0.0)

    def test_solve_one_iter_equals_picard_step(self):
        cfg = config()
        result = solve(cfg)
        grid = cfg.grid
        v0 = GridFunction.zero(grid, 1)
        stepped = picard_step(v0, cfg, RngStream(cfg.seed).substream(1),
                              problem_by_name(cfg.problem, cfg.dim,
                                              cfg.overrides))
        np.testing.assert_array_equal(result.final.u, stepped.u)
        np.testing.assert_array_equal(result.final.ubar, stepped.ubar)

    def test_non_finite_candidate_raises(self):
        cfg = config(m_samples=8)
        grid = cfg.grid
        v = GridFunction(grid, np.full((grid.n_nodes, 1), np.inf),
                         np.zeros((grid.n_nodes, 1, 1)))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue):
            picard_step(v, cfg, RngStream(0),
                        problem_by_name(cfg.problem, cfg.dim, cfg.overrides))

    def test_callers_error_state_holds_on_every_thread(self, monkeypatch):
        # two threads on chunks of one node: the caller's np.errstate
        # silences the interpolation of the infinite candidate on both
        monkeypatch.setenv("BSDE_THREADS", "2")
        monkeypatch.setattr(picard_grid, "CHUNK_ROWS", 8)
        cfg = config(m_samples=8)
        grid = cfg.grid
        v = GridFunction(grid, np.full((grid.n_nodes, 1), np.inf),
                         np.zeros((grid.n_nodes, 1, 1)))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue):
            picard_step(v, cfg, RngStream(0),
                        problem_by_name(cfg.problem, cfg.dim, cfg.overrides))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_non_finite_node_is_named(self, monkeypatch, threads):
        # chunks of four nodes: node 9 is the second of the chunk 8-11
        monkeypatch.setenv("BSDE_THREADS", threads)
        monkeypatch.setattr(picard_grid, "CHUNK_ROWS", 4 * 50)
        cfg = config(problem="arctan-const-sigma", dim=2, n_half=2,
                     m_samples=50)
        grid = cfg.grid
        bad = 9
        starts = {}
        real_sample = picard_grid.sample_fk_batch
        real_r = picard_grid.r_sample_batch

        def sample(problem, params, x, m, dt, rng):
            fk = real_sample(problem, params, x, m, dt, rng)
            starts[id(fk)] = (fk, x)
            return fk

        def poisoned(problem, params, w, fk):
            comp1, comp2 = real_r(problem, params, w, fk)
            rows = np.all(starts[id(fk)][1] == grid.nodes[bad], axis=1)
            comp1[rows] = np.nan
            return comp1, comp2

        monkeypatch.setattr(picard_grid, "sample_fk_batch", sample)
        monkeypatch.setattr(picard_grid, "r_sample_batch", poisoned)
        with pytest.raises(NonFiniteValue, match=f"at node {bad}$"):
            picard_step(random_iterate(grid, 0), cfg, RngStream(0),
                        problem_by_name(cfg.problem, cfg.dim, cfg.overrides))

    def test_interpolation_clamps_outside_box(self, monkeypatch):
        from infbsde import grid as grid_mod

        calls = []
        real = grid_mod.clamp_to_box

        def spy(x, half_extent):
            out = real(x, half_extent)
            calls.append(np.any(out != x))
            return out

        monkeypatch.setattr(grid_mod, "clamp_to_box", spy)
        solve(config(m_samples=200))
        assert any(calls)

    def test_truncation_bounds_weighted_norm(self):
        result = solve(config(truncation=(0.1, 0.0)))
        joint = np.sqrt(np.sum(result.final.u**2, axis=1)
                        + np.sum(result.final.ubar**2, axis=(1, 2)))
        assert joint.max() <= 0.2 + 1e-12


def random_iterate(grid, seed):
    gen = np.random.default_rng(seed)
    return GridFunction(grid, gen.normal(size=(grid.n_nodes, 1)),
                        gen.normal(size=(grid.n_nodes, 1, grid.dim)))


def assert_equals_per_node_reference(monkeypatch, cfg):
    """picard_step at 1 and 2 threads against one sampler call and one
    mean per node."""
    grid = cfg.grid
    v = random_iterate(grid, cfg.dim)
    rng = RngStream(cfg.seed).substream(1)
    problem = problem_by_name(cfg.problem, cfg.dim, cfg.overrides)
    ref_u = np.empty_like(v.u)
    ref_ubar = np.empty_like(v.ubar)
    for node, x in enumerate(grid.nodes):
        fk = sample_fk_batch(problem, cfg.params, x, cfg.m_samples, cfg.dt,
                             rng.substream(node))
        comp1, comp2 = r_sample_batch(problem, cfg.params, v, fk)
        ref_u[node] = comp1.mean(axis=0)
        ref_ubar[node] = comp2.mean(axis=0)
    for threads in ("1", "2"):
        monkeypatch.setenv("BSDE_THREADS", threads)
        stepped = picard_step(v, cfg, rng, problem)
        np.testing.assert_array_equal(stepped.u, ref_u)
        np.testing.assert_array_equal(stepped.ubar, ref_ubar)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = solve(config(n_iters=2))
        b = solve(config(n_iters=2))
        np.testing.assert_array_equal(a.final.u, b.final.u)
        np.testing.assert_array_equal(a.final.ubar, b.final.ubar)

    @pytest.mark.parametrize("name,dim,dt", [
        ("arctan-const-sigma", 1, None),
        ("arctan-const-sigma", 2, None),
        ("arctan-tanh-sigma", 1, 0.1),
    ])
    def test_node_chunks_do_not_change_result(self, monkeypatch, name, dim, dt):
        # three nodes of 2,000 draws per chunk; 7 and 25 nodes leave a short
        # last chunk
        monkeypatch.setattr(picard_grid, "CHUNK_ROWS", 6000)
        m = picard_grid.CHUNK_ROWS // 3
        cfg = config(problem=name, dim=dim, n_half=3 if dim == 1 else 2,
                     half_width=2.0, m_samples=m, dt=dt)
        assert cfg.grid.n_nodes % 3 != 0
        assert_equals_per_node_reference(monkeypatch, cfg)

    def test_default_chunk_size_does_not_change_result(self, monkeypatch):
        # 25 nodes of 1,500 draws: full chunks and a short last one
        per_chunk = picard_grid.CHUNK_ROWS // 1500
        assert 1 < per_chunk < 25 and 25 % per_chunk != 0
        cfg = config(problem="arctan-const-sigma", dim=2, n_half=2,
                     half_width=2.0, m_samples=1500)
        assert_equals_per_node_reference(monkeypatch, cfg)

    def test_thread_count_does_not_change_result(self, monkeypatch):
        baseline = solve(config())
        monkeypatch.setenv("BSDE_THREADS", "3")
        threaded = solve(config())
        np.testing.assert_array_equal(baseline.final.u, threaded.final.u)
        np.testing.assert_array_equal(baseline.final.ubar, threaded.final.ubar)


class TestContraction:
    def test_envelope_with_analysis_constant(self):
        # kappa from the closed-form kernel norm; noise allowance is five
        # times the largest per-node standard error at the fixed point
        from infbsde import (RngStream, brownian_c_infinity, estimate_phi,
                             kappa_infinity)

        cfg = config(overrides={"mu": 1.0}, m_samples=20000, n_iters=6)
        result = solve(cfg)
        problem = problem_by_name(cfg.problem, cfg.dim, cfg.overrides)
        kappa = kappa_infinity(problem.gen, cfg.params, *brownian_c_infinity(
            cfg.params.discount_y, cfg.params.discount_z))
        assert kappa == 0.5
        nodes = cfg.grid.nodes
        est = estimate_phi(problem, cfg.params, problem.analytic, nodes,
                           cfg.m_samples, None,
                           [RngStream(500 + k) for k in range(len(nodes))])
        allowance = 5 * est.std_err[0].max()
        errs = [r.sup_err_u for r in result.reports]
        for n in range(2, 7):
            assert errs[n - 1] <= kappa * errs[n - 2] + allowance

    def test_error_envelope(self):
        # monotonicity 1 with discount 2 gives a per-iteration factor 1/2;
        # fixed point u = 3, so the first iterate (= 3/2) errs by 3/2
        cfg = config(overrides={"mu": 1.0}, m_samples=20000, n_iters=8)
        result = solve(cfg)
        errs = [r.sup_err_u for r in result.reports]
        assert errs[0] == pytest.approx(1.5, abs=0.05)
        for prev, cur in zip(errs, errs[1:]):
            assert cur <= 0.55 * prev + 0.05
        assert errs[-1] < 0.08
        assert [r.n for r in result.reports] == list(range(1, 9))
        assert all(r.seconds >= 0 for r in result.reports)


class TestRateFit:
    def test_injected_power_law(self):
        nh = [5, 8, 12, 16, 20]
        errs = [3.7 * (2.0 + n) ** -2 for n in nh]
        slope, intercept = fit_rate_slope(nh, errs)
        assert slope == pytest.approx(-2.0, abs=1e-9)
        assert intercept == pytest.approx(np.log(3.7), abs=1e-9)

    def test_underdetermined(self):
        with pytest.raises(FitUnderdetermined):
            fit_rate_slope([5, 8], [0.1, 0.05])
        with pytest.raises(ValueError):
            fit_rate_slope([5, 8, 12], [0.1, 0.05])

    def test_repeated_sizes_count_once(self):
        with pytest.raises(FitUnderdetermined):
            fit_rate_slope([2, 2, 2], [0.1, 0.05, 0.03])
        with pytest.raises(FitUnderdetermined):
            rate_study(config(), [2, 3, 3, 2], k=10.0)

    @pytest.mark.parametrize("k", [np.nan, np.inf, -5.0, 0.0])
    def test_rate_study_needs_finite_positive_k(self, k):
        with pytest.raises(ValueError, match="k must be"):
            rate_study(config(), [2, 3, 4], k=k)

    @pytest.mark.parametrize("k, half_width", [
        (1e308, 1.0), (1e300, 1.0), (1e6, 1e-90), (1.0, 1e100)])
    def test_rate_study_rejects_counts_beyond_int64(self, monkeypatch, k,
                                                    half_width):
        # the counts are checked before the first level runs
        monkeypatch.setattr(picard_grid, "solve", None)
        with pytest.raises(ValueError, match="no int64 sample count"):
            rate_study(config(half_width=half_width), [2, 3, 4], k=k)

    def test_rate_study_smoke(self):
        cfg = config(overrides={"mu": 1.0}, half_width=2.0, n_iters=4)
        result = rate_study(cfg, [2, 3, 4], k=10.0)
        np.testing.assert_array_equal(result.n_half, [2, 3, 4])
        np.testing.assert_array_equal(result.m_samples, [10, 51, 160])
        assert result.sup_err_u.shape == (3,)
        assert np.all(result.sup_err_u > 0)
        assert np.isfinite(result.slope) and np.isfinite(result.intercept)

    def test_rate_study_needs_three_sizes(self):
        with pytest.raises(FitUnderdetermined):
            rate_study(config(), [2, 3], k=10.0)
