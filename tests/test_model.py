"""Problem registry, parameter validation, and manufactured generators."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infbsde import model as model_mod
from infbsde import (GeneratorSpec, InconsistentDerivatives, NonPositiveRate,
                     PROBLEM_NAMES, SchemeParams, UnknownProblem, brownian_sde,
                     manufacture_problem, problem_by_name, tanh_sigma_sde,
                     validate_params)
from infbsde.model import as_points


def arctan_gen(c=2.0, kz=0.5):
    return problem_by_name("arctan-const-sigma", 1, {"c": c, "kz": kz}).gen


class TestValidateParams:
    def test_paper_settings_pass(self):
        gen = arctan_gen()
        report = validate_params(SchemeParams(2.0, 2.0, 1.5, 1.5), gen)
        assert report.ok
        assert all(check.passed for check in report.checks)
        # 2*mu - K_z^2 = 2*1 - 0.25
        assert report.monotonicity_margin == pytest.approx(1.75)

    def test_discount_not_above_rate_fails(self):
        report = validate_params(SchemeParams(1.0, 2.0, 1.0, 1.5), arctan_gen())
        assert not report.ok
        failed = [c for c in report.checks if not c.passed]
        assert len(failed) == 1
        assert "exp_rate" in failed[0].name or "discount_y" in failed[0].name

    def test_negative_margin_is_warning_not_failure(self):
        report = validate_params(SchemeParams(2.0, 2.0, 1.5, 1.5),
                                 arctan_gen(kz=2.0))
        assert report.monotonicity_margin == pytest.approx(-2.0)
        assert report.warnings
        assert report.ok

    @pytest.mark.parametrize("params", [
        SchemeParams(0.0, 2.0, 1.5, 1.5),
        SchemeParams(2.0, -1.0, 1.5, 1.5),
        SchemeParams(2.0, 2.0, 0.0, 1.5),
        SchemeParams(2.0, 2.0, 1.5, -0.5),
    ])
    def test_non_positive_rate_raises(self, params):
        with pytest.raises(NonPositiveRate):
            validate_params(params, arctan_gen())


class TestRegistry:
    def test_names(self):
        assert set(PROBLEM_NAMES) == {"arctan-const-sigma",
                                      "arctan-tanh-sigma", "linear-constant"}

    def test_arctan_analytic_values(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        assert problem.analytic.u([[2.0]])[0, 0] == pytest.approx(np.arctan(2.0))
        assert problem.analytic.ubar([[2.0]])[0, 0, 0] == pytest.approx(0.2)

    def test_linear_constant_solution(self):
        problem = problem_by_name("linear-constant", 1,
                                  {"mu": 2.0, "c0": 3.0})
        x = np.array([[-4.0], [0.0], [2.5]])
        np.testing.assert_allclose(problem.analytic.u(x), 1.5)
        np.testing.assert_allclose(problem.analytic.ubar(x), 0.0)

    def test_tanh_sigma_ubar_at_origin(self):
        problem = problem_by_name("arctan-tanh-sigma", 1, {"eps": 0.9})
        assert problem.analytic.ubar([[0.0]])[0, 0, 0] == pytest.approx(1.0)

    def test_unknown_name(self):
        with pytest.raises(UnknownProblem):
            problem_by_name("quadratic", 1)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            problem_by_name("arctan-const-sigma", 1, {"gamma": 1.0})

    def test_tanh_sigma_is_one_dimensional(self):
        with pytest.raises(ValueError):
            problem_by_name("arctan-tanh-sigma", 2)

    def test_constants_arctan(self):
        gen = arctan_gen(c=2.0, kz=0.5)
        assert gen.lip_y == pytest.approx(3.0)
        assert gen.monotonicity == pytest.approx(1.0)
        assert gen.lip_z == pytest.approx(0.5)
        assert gen.depends_on_z

    def test_kz_zero_flags_y_only(self):
        assert not arctan_gen(kz=0.0).depends_on_z


class TestManufacture:
    def test_linear_constant_generator_unchanged(self):
        problem = problem_by_name("linear-constant", 1,
                                  {"mu": 2.0, "c0": 3.0})
        x = np.array([[0.7]])
        for y in (-2.0, 0.0, 1.5, 4.0):
            z = np.array([[[0.3]]])
            val = problem.gen.f(x, np.array([[y]]), z)
            assert val[0, 0] == pytest.approx(-2.0 * y + 3.0, abs=1e-12)

    def test_arctan_origin_value(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        x = np.array([[0.0]])
        u0 = problem.analytic.u(x)
        ub0 = problem.analytic.ubar(x)
        assert u0[0, 0] == 0.0
        assert ub0[0, 0, 0] == 1.0
        # second derivative of arctan vanishes at 0, so f(0, u, ubar) = 0
        assert problem.gen.f(x, u0, ub0)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_arctan_correction_at_one(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        x = np.array([[1.0]])
        u1 = problem.analytic.u(x)
        ub1 = problem.analytic.ubar(x)

        def f0(x_, y, z):
            c, kz = 2.0, 0.5
            nrm = np.linalg.norm(x_, axis=1, keepdims=True)
            zn = np.sqrt(np.sum(z**2, axis=(1, 2)))[:, None]
            return -c * y + np.cos(y + nrm) + kz * np.sin(zn)

        y = np.array([[0.3]])
        z = np.array([[[-0.8]]])
        got = problem.gen.f(x, y, z) - f0(x, y, z) + f0(x, u1, ub1)
        # -(1/2) u''(1) = x/(1+x^2)^2 at x=1
        assert got[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_inconsistent_gradient_rejected(self):
        sde = brownian_sde(1)
        f0 = GeneratorSpec(
            dim_y=1,
            f=lambda x, y, z: -y,
            lip_y=1.0, lip_z=0.0, monotonicity=1.0,
            growth_bound=1.0, growth_degree=0.0, depends_on_z=False)
        with pytest.raises(InconsistentDerivatives):
            manufacture_problem(
                u=lambda x: x**2,
                grad_u=lambda x: 3.0 * x[:, None, :],
                hess_u=lambda x: np.full((x.shape[0], 1, 1, 1), 2.0),
                f0=f0, sde=sde)


def _generic_driver(ingredients, sde):
    """Reference driver: f0(x,y,z) - generator operator - f0(x, u, ubar), every
    product with sigma and the drift written out."""
    u, grad_u, hess_u, f0 = ingredients

    def f(x, y, z):
        sig = sde.diffusion(x)
        ssq = np.einsum("mak,mbk->mab", sig, sig)
        op = 0.5 * np.einsum("miab,mab->mi", hess_u(x), ssq)
        op += np.einsum("mij,mj->mi", grad_u(x), sde.drift(x))
        ubar = np.einsum("mij,mjk->mik", grad_u(x), sig)
        return f0(x, y, z) - op - f0(x, u(x), ubar)

    return f


class TestBrownianDriverPath:
    @pytest.mark.parametrize("name,dim", [
        ("arctan-const-sigma", 1), ("arctan-const-sigma", 2),
        ("arctan-const-sigma", 3), ("linear-constant", 2),
        ("arctan-tanh-sigma", 1),
    ])
    def test_driver_equals_generic_formula(self, monkeypatch, name, dim):
        captured = {}
        real = model_mod.manufacture_problem

        def spy(u, grad_u, hess_u, f0, sde, **kwargs):
            captured["ingredients"] = (u, grad_u, hess_u, f0.f)
            return real(u, grad_u, hess_u, f0, sde, **kwargs)

        monkeypatch.setattr(model_mod, "manufacture_problem", spy)
        problem = problem_by_name(name, dim)
        sde = problem.sde
        assert sde.is_brownian == (name != "arctan-tanh-sigma")
        reference = _generic_driver(captured["ingredients"], sde)
        gen = np.random.default_rng(dim)
        m = 3000
        x = gen.normal(0.0, 3.0, (m, dim))
        y = gen.normal(size=(m, 1))
        z = gen.normal(size=(m, 1, dim))
        np.testing.assert_array_equal(problem.gen.f(x, y, z), reference(x, y, z))
        grad_u = captured["ingredients"][1]
        np.testing.assert_array_equal(
            problem.analytic.ubar(x),
            np.einsum("mij,mjk->mik", grad_u(x), sde.diffusion(x)))


def _pde_residual_arctan(problem, x, c, kz, sigma, dsigma):
    """Residual of the elliptic equation using the test's own calculus."""
    u = np.arctan(x)
    du = 1.0 / (1.0 + x**2)
    d2u = -2.0 * x / (1.0 + x**2) ** 2
    ubar = du * sigma(x)
    f = problem.gen.f(x[:, None], u[:, None], ubar[:, None, None])[:, 0]
    return 0.5 * sigma(x) ** 2 * d2u + f


class TestPdeResidual:
    def test_arctan_const_sigma(self):
        problem = problem_by_name("arctan-const-sigma", 1)
        x = np.linspace(-3, 3, 100)
        res = _pde_residual_arctan(problem, x, 2.0, 0.5,
                                   lambda x_: np.ones_like(x_), None)
        assert np.max(np.abs(res)) < 1e-8

    def test_arctan_tanh_sigma(self):
        problem = problem_by_name("arctan-tanh-sigma", 1, {"eps": 0.9})
        x = np.linspace(-3, 3, 100)
        res = _pde_residual_arctan(problem, x, 2.0, 0.1,
                                   lambda x_: 1.0 + 0.9 * np.tanh(x_), None)
        assert np.max(np.abs(res)) < 1e-8

    def test_arctan_const_sigma_d3(self):
        problem = problem_by_name("arctan-const-sigma", 3)
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 2.0, size=(100, 3))
        u = np.mean(np.arctan(x), axis=1, keepdims=True)
        du = 1.0 / (3.0 * (1.0 + x**2))
        d2u_diag = -2.0 * x / (3.0 * (1.0 + x**2) ** 2)
        ubar = du[:, None, :]
        f = problem.gen.f(x, u, ubar)
        res = 0.5 * np.sum(d2u_diag, axis=1, keepdims=True) + f
        assert np.max(np.abs(res)) < 1e-8


class TestDriverJacobians:
    @pytest.mark.parametrize("name,dim", [("arctan-const-sigma", 2),
                                          ("arctan-tanh-sigma", 1),
                                          ("linear-constant", 1)])
    def test_match_finite_differences(self, name, dim):
        gen = problem_by_name(name, dim).gen
        rng = np.random.default_rng(17)
        m = 40
        x = rng.normal(0.0, 2.0, (m, dim))
        y = rng.normal(0.0, 1.5, (m, 1))
        z = rng.normal(0.0, 1.5, (m, 1, dim))
        h = 1e-6
        fd_y = (gen.f(x, y + h, z) - gen.f(x, y - h, z)) / (2 * h)
        np.testing.assert_allclose(gen.f_y(x, y, z)[:, :, 0], fd_y, atol=1e-7)
        fd_z = np.empty((m, 1, dim))
        for k in range(dim):
            step = np.zeros((1, dim))
            step[0, k] = h
            fd_z[:, :, k] = (gen.f(x, y, z + step)
                             - gen.f(x, y, z - step)) / (2 * h)
        np.testing.assert_allclose(gen.f_z(x, y, z)[:, :, 0, :], fd_z,
                                   atol=1e-7)

    def test_wrong_jacobian_rejected(self):
        f0 = GeneratorSpec(
            dim_y=1,
            f=lambda x, y, z: -y,
            lip_y=1.0, lip_z=0.0, monotonicity=1.0,
            growth_bound=1.0, growth_degree=0.0, depends_on_z=False,
            f_y=lambda x, y, z: np.full((x.shape[0], 1, 1), 2.0))
        with pytest.raises(InconsistentDerivatives):
            manufacture_problem(
                u=lambda x: x**2,
                grad_u=lambda x: 2.0 * x[:, None, :],
                hess_u=lambda x: np.full((x.shape[0], 1, 1, 1), 2.0),
                f0=f0, sde=brownian_sde(1))


class TestGeneratorProperties:
    def test_lipschitz_constants_not_exceeded(self):
        problem = problem_by_name("arctan-const-sigma", 2)
        gen = problem.gen
        rng = np.random.default_rng(11)
        x = rng.normal(size=(200, 2))
        y1, y2 = rng.normal(size=(2, 200, 1))
        z1, z2 = rng.normal(size=(2, 200, 1, 2))
        fy = np.linalg.norm(gen.f(x, y1, z1) - gen.f(x, y2, z1), axis=1)
        ratio_y = fy / np.linalg.norm(y1 - y2, axis=1)
        assert ratio_y.max() <= gen.lip_y + 1e-8
        fz = np.linalg.norm(gen.f(x, y1, z1) - gen.f(x, y1, z2), axis=1)
        dz = np.sqrt(np.sum((z1 - z2) ** 2, axis=(1, 2)))
        assert (fz / dz).max() <= gen.lip_z + 1e-8

    def test_monotonicity_spot_check(self):
        gen = arctan_gen()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 1))
        y1, y2 = rng.normal(scale=2.0, size=(2, 300, 1))
        z = rng.normal(size=(300, 1, 1))
        inner = np.sum((gen.f(x, y1, z) - gen.f(x, y2, z)) * (y1 - y2), axis=1)
        bound = -gen.monotonicity * np.sum((y1 - y2) ** 2, axis=1)
        assert np.all(inner <= bound + 1e-8)


class TestSdeSpecs:
    def test_brownian_flags(self):
        sde = brownian_sde(3)
        x = np.zeros((4, 3))
        assert sde.is_brownian
        np.testing.assert_allclose(sde.drift(x), 0.0)
        np.testing.assert_allclose(sde.diffusion(x),
                                   np.broadcast_to(np.eye(3), (4, 3, 3)))

    def test_tanh_sigma_inverse(self):
        sde = tanh_sigma_sde(0.9)
        x = np.linspace(-5, 5, 41)[:, None]
        prod = np.einsum("mij,mjk->mik", sde.diffusion(x),
                         sde.inverse_diffusion(x))
        np.testing.assert_allclose(prod, np.ones((41, 1, 1)), atol=1e-10)

    def test_tanh_sigma_jacobian_matches_derivative(self):
        sde = tanh_sigma_sde(0.9)
        x = np.linspace(-2, 2, 9)[:, None]
        h = 1e-6
        fd = (sde.diffusion(x + h) - sde.diffusion(x - h)) / (2 * h)
        np.testing.assert_allclose(sde.diffusion_jacobian(x)[:, :, :, 0], fd,
                                   atol=1e-8)

    def test_eps_range_validated(self):
        with pytest.raises(ValueError):
            tanh_sigma_sde(1.0)
        with pytest.raises(ValueError):
            tanh_sigma_sde(-0.1)


finite = st.floats(-1e6, 1e6, allow_nan=False)


class TestAsPointsProperties:
    """Shape contract: ``(m, dim)`` out, values unchanged, else ValueError."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), finite)
    def test_scalar_is_one_point_in_one_dimension_only(self, dim, value):
        if dim == 1:
            np.testing.assert_array_equal(as_points(value, 1), [[value]])
        else:
            with pytest.raises(ValueError):
                as_points(value, dim)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.lists(finite, min_size=1, max_size=8))
    def test_flat_array(self, dim, values):
        flat = np.array(values)
        if dim == 1:  # m points
            np.testing.assert_array_equal(as_points(flat, 1), flat[:, None])
        elif len(values) == dim:  # one point
            np.testing.assert_array_equal(as_points(flat, dim), flat[None, :])
        else:
            with pytest.raises(ValueError):
                as_points(flat, dim)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_batch_passes_only_at_its_width(self, dim, width, m, seed):
        x = np.random.default_rng(seed).normal(size=(m, width))
        if width == dim:
            out = as_points(x, dim)
            assert out.shape == (m, dim) and out.dtype == float
            np.testing.assert_array_equal(out, x)
        else:
            with pytest.raises(ValueError):
                as_points(x, dim)
        with pytest.raises(ValueError):
            as_points(x[None], dim)
