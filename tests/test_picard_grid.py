"""Grid Picard iteration: exactness, noise level, contraction, rate fit."""
import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infbsde import (FitUnderdetermined, FreshDraws, GridFunction,
                     GridMismatch, GridSolveConfig, NonFiniteValue,
                     NonPositiveRate, RateStudyConfig, RngStream, SchemeParams,
                     UnknownProblem, fit_rate_slope, picard_step,
                     r_sample_batch, rate_study, sample_fk_batch, solve)
from infbsde import picard_grid


def config(**kwargs):
    base = dict(problem="linear-constant", dim=1, n_half=2, half_width=1.0,
                m_samples=4000, n_iters=1, seed=11)
    base.update(kwargs)
    return GridSolveConfig(**base)


def study(**kwargs):
    base = dict(problem="linear-constant", dim=1, half_width=1.0, n_iters=1,
                seed=11, ntilde_list=(2, 3, 4), k=10.0)
    base.update(kwargs)
    return RateStudyConfig(**base)


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

    def test_replace_builds_the_problem_anew(self):
        cfg = config(overrides={"mu": 4.0})
        other = dataclasses.replace(cfg, problem="arctan-const-sigma",
                                    overrides=None)
        assert cfg.built_problem.analytic(np.zeros(1))[0][0, 0] == 0.75
        assert other.built_problem.name == "arctan-const-sigma"

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
        # a finite positive bound and a finite non-negative degree, given
        # together
        *[pytest.param({"trunc_bound": bound, "trunc_degree": degree},
                       ValueError, id=f"truncation{bound},{degree}")
          for bound, degree in ((-1.0, 1.0), (0.0, 1.0), (np.nan, 1.0),
                                (np.inf, 1.0), (1.0, -1.0), (1.0, np.nan),
                                (1.0, np.inf))],
        *[pytest.param({key: 1.0}, ValueError, id=key)
          for key in ("trunc_bound", "trunc_degree")]])
    def test_rejects_what_the_cli_rejects(self, settings, error):
        with pytest.raises(error):
            build_run(GridSolveConfig, settings)

    @pytest.mark.parametrize("cls", [GridSolveConfig, RateStudyConfig])
    def test_thread_count_checked_on_construction(self, monkeypatch, cls):
        monkeypatch.setenv("BSDE_THREADS", "abc")
        with pytest.raises(ValueError, match="BSDE_THREADS must be a "
                           "positive integer, not 'abc'"):
            cls(problem="linear-constant")


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
        stepped = picard_step(
            v0, FreshDraws(cfg, [RngStream(cfg.seed).substream(1)]))
        np.testing.assert_array_equal(result.final.u, stepped.u)
        np.testing.assert_array_equal(result.final.ubar, stepped.ubar)

    def test_non_finite_candidate_raises(self):
        cfg = config(m_samples=8)
        grid = cfg.grid
        v = GridFunction(grid, np.full((grid.n_nodes, 1), np.inf),
                         np.zeros((grid.n_nodes, 1, 1)))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue):
            picard_step(v, FreshDraws(cfg, [RngStream(0)]))

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
            picard_step(v, FreshDraws(cfg, [RngStream(0)]))

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

        # a batch's row starts, by the address of its e_time buffer, which
        # the row views that FreshDraws hands out share
        def sample(problem, params, x, m, dt, rng):
            fk = real_sample(problem, params, x, m, dt, rng)
            starts[fk.e_time.ctypes.data] = (fk, np.repeat(x, m, axis=0))
            return fk

        def poisoned(problem, params, w, fk):
            comp1, comp2 = real_r(problem, params, w, fk)
            rows = np.all(starts[fk.e_time.ctypes.data][1] == grid.nodes[bad],
                          axis=1)
            comp1[rows] = np.nan
            return comp1, comp2

        monkeypatch.setattr(picard_grid, "sample_fk_batch", sample)
        monkeypatch.setattr(picard_grid, "r_sample_batch", poisoned)
        with pytest.raises(NonFiniteValue, match=f"at node {bad}$"):
            picard_step(random_iterate(grid, 0),
                        FreshDraws(cfg, [RngStream(0)]))

    def test_interpolation_clamps_outside_box(self, monkeypatch):
        calls = []
        real = np.clip

        def spy(x, *args, **kwargs):
            out = real(x, *args, **kwargs)
            calls.append(np.any(out != x))
            return out

        monkeypatch.setattr(np, "clip", spy)
        solve(config(m_samples=200))
        assert any(calls)

    def test_truncation_bounds_weighted_norm(self):
        result = solve(config(trunc_bound=0.1, trunc_degree=0.0))
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
    problem = cfg.built_problem
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
        stepped = picard_step(v, FreshDraws(cfg, [rng]))
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

    def test_one_worker_runs_in_the_callers_thread(self, monkeypatch):
        # five chunks of one node: unset BSDE_THREADS starts no pool and
        # gives the bits of two threads
        monkeypatch.setattr(picard_grid, "CHUNK_ROWS", 8)
        cfg = config(m_samples=8)
        v = random_iterate(cfg.grid, 0)
        pool = picard_grid.ThreadPoolExecutor

        def no_pool(*args, **kwargs):
            raise AssertionError("one worker needs no thread pool")

        monkeypatch.delenv("BSDE_THREADS", raising=False)
        monkeypatch.setattr(picard_grid, "ThreadPoolExecutor", no_pool)
        serial = picard_step(v, FreshDraws(cfg, [RngStream(0)]))
        monkeypatch.setenv("BSDE_THREADS", "2")
        monkeypatch.setattr(picard_grid, "ThreadPoolExecutor", pool)
        threaded = picard_step(v, FreshDraws(cfg, [RngStream(0)]))
        np.testing.assert_array_equal(serial.u, threaded.u)
        np.testing.assert_array_equal(serial.ubar, threaded.ubar)

    def test_thread_count_does_not_change_result(self, monkeypatch):
        baseline = solve(config())
        monkeypatch.setenv("BSDE_THREADS", "3")
        threaded = solve(config())
        np.testing.assert_array_equal(baseline.final.u, threaded.final.u)
        np.testing.assert_array_equal(baseline.final.ubar, threaded.final.ubar)



DRAW_CASES = [
    pytest.param("arctan-const-sigma", 1, None, 3, 200, id="brownian-d1"),
    pytest.param("arctan-const-sigma", 2, None, 2, 100, id="brownian-d2"),
    pytest.param("arctan-tanh-sigma", 1, 0.1, 3, 200, id="euler-d1"),
]


def stepped_solve(cfg):
    """The final iterate of ``solve(cfg)`` drawn one iteration at a time:
    iteration ``n`` takes ``FreshDraws`` of the one stream
    ``RngStream(cfg.seed).substream(n)``."""
    v = GridFunction.zero(cfg.grid, cfg.built_problem.gen.dim_y)
    base = RngStream(cfg.seed)
    for n in range(1, cfg.n_iters + 1):
        v = picard_step(v, FreshDraws(cfg, [base.substream(n)]))
    return v


class TestDrawAhead:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("n_iters, ahead", [(4, 1), (4, 2), (4, 4),
                                                (5, 2)])
    @pytest.mark.parametrize("name, dim, dt, n_half, m", DRAW_CASES)
    def test_solve_equals_one_iteration_steps(self, monkeypatch, name, dim,
                                              dt, n_half, m, n_iters, ahead,
                                              threads):
        # chunks of three nodes (7 and 25 nodes leave a short last chunk);
        # the budget holds `ahead` iterations, so 5 iterations in groups of
        # 2 end on a short group
        cfg = config(problem=name, dim=dim, dt=dt, n_half=n_half,
                     half_width=2.0, m_samples=m, n_iters=n_iters)
        monkeypatch.setenv("BSDE_THREADS", threads)
        monkeypatch.setattr(picard_grid, "CHUNK_ROWS", 3 * m)
        monkeypatch.setattr(picard_grid, "DRAW_ROWS",
                            ahead * cfg.grid.n_nodes * m)
        points = []
        real = picard_grid.sample_fk_batch

        def counted(*args):
            points.append(len(args[2]))
            return real(*args)

        monkeypatch.setattr(picard_grid, "sample_fk_batch", counted)
        result = solve(cfg)
        # one sampler call per chunk and group, of each group iteration's
        # nodes
        chunks = -(-cfg.grid.n_nodes // 3)
        assert len(points) == -(-n_iters // ahead) * chunks
        assert max(points) == 3 * ahead
        monkeypatch.setattr(picard_grid, "sample_fk_batch", real)
        stepped = stepped_solve(cfg)
        np.testing.assert_array_equal(result.final.u, stepped.u)
        np.testing.assert_array_equal(result.final.ubar, stepped.ubar)

    def test_many_threads_share_the_draws(self, monkeypatch):
        # 25 chunks of one node on four threads, switching often: each
        # chunk's rows go to its own iteration whatever the schedule
        cfg = config(problem="arctan-const-sigma", dim=2, n_half=2,
                     half_width=2.0, m_samples=40, n_iters=3)
        monkeypatch.setenv("BSDE_THREADS", "4")
        monkeypatch.setattr(picard_grid, "CHUNK_ROWS", 40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = solve(cfg)
        finally:
            sys.setswitchinterval(interval)
        stepped = stepped_solve(cfg)
        np.testing.assert_array_equal(result.final.u, stepped.u)
        np.testing.assert_array_equal(result.final.ubar, stepped.ubar)

    def test_draws_kept_between_steps_fit_the_budget(self, monkeypatch):
        # 7 nodes of 1,000 draws: the budget holds four iterations.  At the
        # start of every step, traced memory exceeds that of a solve that
        # draws each iteration alone by the kept FkBatch arrays, 8 * (2 + 3d)
        # bytes a row: more than all but one iteration of a group, and at
        # most DRAW_ROWS rows
        cfg = config(problem="arctan-const-sigma", n_half=3, half_width=2.0,
                     m_samples=1000, n_iters=6)
        rows, budget = cfg.grid.n_nodes * cfg.m_samples, picard_grid.DRAW_ROWS
        ahead = budget // rows
        assert 1 < ahead < cfg.n_iters
        real = picard_grid.picard_step

        def held_at_each_step():
            held = []

            def spy(*args):
                held.append(tracemalloc.get_traced_memory()[0])
                return real(*args)

            monkeypatch.setattr(picard_grid, "picard_step", spy)
            tracemalloc.start()
            try:
                solve(cfg)
            finally:
                tracemalloc.stop()
            return np.array(held)

        solve(cfg)
        drawn_ahead = held_at_each_step()
        monkeypatch.setattr(picard_grid, "DRAW_ROWS", rows)
        kept = drawn_ahead - held_at_each_step()
        per_row = 8 * (2 + 3 * cfg.dim)
        assert (ahead - 1) * rows * per_row < kept.max() <= budget * per_row

    def test_each_iteration_is_taken_once(self):
        cfg = config(m_samples=50)
        draws = FreshDraws(cfg, [RngStream(0).substream(n) for n in (1, 2)])
        v = GridFunction.zero(cfg.grid, 1)
        for _ in range(2):
            v = picard_step(v, draws)
        with pytest.raises(ValueError, match="all 2 iterations"):
            picard_step(v, draws)


class TestFreshDraws:
    def test_one_draws_object_per_solve(self, monkeypatch):
        # five iterations in groups of two: one object draws all three groups
        cfg = config(m_samples=50, n_iters=5)
        monkeypatch.setattr(picard_grid, "DRAW_ROWS",
                            2 * cfg.grid.n_nodes * cfg.m_samples)
        built = []
        real = picard_grid.FreshDraws

        def counted(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(picard_grid, "FreshDraws", counted)
        solve(cfg)
        assert len(built) == 1
        assert built[0].group == 2 and len(built[0].streams) == 5

    def test_iterate_on_another_lattice_raises(self, monkeypatch):
        # nothing is drawn for an iterate the draws do not fit
        def no_draws(*args):
            raise AssertionError("drew for a mismatched iterate")

        monkeypatch.setattr(picard_grid, "sample_fk_batch", no_draws)
        draws = FreshDraws(config(), [RngStream(0)])
        with pytest.raises(GridMismatch):
            picard_step(GridFunction.zero(config(n_half=3).grid, 1), draws)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 2), n_half=st.integers(1, 6),
           pad=st.integers(0, 2), m=st.integers(2, 30000))
    def test_chunks_cut_the_nodes_in_order(self, dim, n_half, pad, m):
        cfg = config(dim=dim, n_half=n_half, pad=pad, m_samples=m)
        chunks = FreshDraws(cfg, [RngStream(0)]).chunks
        per_chunk = max(1, picard_grid.CHUNK_ROWS // m)
        assert ([node for chunk in chunks for node in chunk]
                == list(range(cfg.grid.n_nodes)))
        assert all(chunk.step == 1 for chunk in chunks)
        assert all(len(chunk) == per_chunk for chunk in chunks[:-1])
        assert 1 <= len(chunks[-1]) <= per_chunk


class TestContraction:
    def test_envelope_with_analysis_constant(self):
        # kappa from the closed-form kernel norm; noise allowance is five
        # times the largest per-node standard error at the fixed point
        from infbsde import (RngStream, brownian_c_infinity, estimate_phi,
                             kappa_infinity)

        cfg = config(overrides={"mu": 1.0}, m_samples=20000, n_iters=6)
        result = solve(cfg)
        problem = cfg.built_problem
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

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan, -0.1])
    def test_error_without_a_log_fails(self, bad):
        # an exact solve gives zero errors; numpy's log then warned and the
        # fit returned a nan slope
        with pytest.raises(ArithmeticError, match=r"0\.1, .*0\.03\]"):
            fit_rate_slope([5, 8, 12], [0.1, bad, 0.03])

    def test_repeated_sizes_count_once(self):
        with pytest.raises(FitUnderdetermined):
            fit_rate_slope([2, 2, 2], [0.1, 0.05, 0.03])
        with pytest.raises(FitUnderdetermined):
            study(ntilde_list=(2, 3, 3, 2))

    @pytest.mark.parametrize("k", [np.nan, np.inf, -5.0, 0.0])
    def test_rate_study_needs_finite_positive_k(self, k):
        with pytest.raises(ValueError, match="k must be"):
            study(k=k)

    @pytest.mark.parametrize("k, half_width", [
        (1e308, 1.0), (1e300, 1.0), (1e6, 1e-90), (1.0, 1e100)])
    def test_rate_study_rejects_counts_beyond_int64(self, monkeypatch, k,
                                                    half_width):
        # the counts are checked on construction, before any level runs
        monkeypatch.setattr(picard_grid, "solve", None)
        with pytest.raises(ValueError, match="no int64 sample count"):
            study(half_width=half_width, k=k)

    @pytest.mark.parametrize("settings, message", [
        pytest.param({"ntilde_list": (0, 1, 2)}, "ntilde_list entries",
                     id="ntilde0"),
        *[pytest.param({"half_width": value}, "grid requires",
                       id=f"half_width{value}")
          for value in (0.0, -1.0, np.inf, np.nan)],
        pytest.param({"pad": -1}, "grid requires", id="pad-1")])
    def test_rate_study_checks_its_meshes_on_construction(self, settings,
                                                           message):
        with pytest.raises(ValueError, match=message):
            study(**settings)

    def test_rate_study_smoke(self):
        cfg = study(overrides={"mu": 1.0}, half_width=2.0, n_iters=4)
        np.testing.assert_array_equal(cfg.ntilde_list, [2, 3, 4])
        np.testing.assert_array_equal(cfg.m_samples, [10, 51, 160])
        result = rate_study(cfg)
        assert result.sup_err_u.shape == (3,)
        assert np.all(result.sup_err_u > 0)
        assert np.isfinite(result.slope) and np.isfinite(result.intercept)

    def test_rate_study_needs_three_sizes(self):
        with pytest.raises(FitUnderdetermined):
            study(ntilde_list=(2, 3))
