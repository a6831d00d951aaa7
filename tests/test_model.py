"""Problem registry, parameter validation, and manufactured generators."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infbsde import model as model_mod
from infbsde import (GeneratorSpec, InconsistentDerivatives, NonPositiveRate,
                     PROBLEM_CONSTANTS, PROBLEM_NAMES, SchemeParams,
                     UnknownProblem, brownian_sde, manufacture_problem,
                     monotonicity_margin, problem_by_name, tanh_sigma_sde)
from infbsde.cli import _SPREAD, build_parser
from infbsde.model import as_points, row_sum


def arctan_gen(c=2.0, kz=0.5):
    return problem_by_name("arctan-const-sigma", 1, {"c": c, "kz": kz}).gen


class TestValidateParams:
    """Positive rates and the monotonicity margin; the discount-above-rate
    conditions are ``contraction_report`` rows (test_analysis.py)."""

    def test_paper_settings_pass(self):
        SchemeParams(2.0, 2.0, 1.5, 1.5)
        margin = monotonicity_margin(arctan_gen())
        # 2*mu - K_z^2 = 2*1 - 0.25
        assert margin == pytest.approx(1.75)

    def test_negative_margin_is_warning_not_failure(self):
        SchemeParams(2.0, 2.0, 1.5, 1.5)
        margin = monotonicity_margin(arctan_gen(kz=2.0))
        assert margin == pytest.approx(-2.0)

    @pytest.mark.parametrize("params", [
        (0.0, 2.0, 1.5, 1.5),
        (2.0, -1.0, 1.5, 1.5),
        (2.0, 2.0, 0.0, 1.5),
        (2.0, 2.0, 1.5, -0.5),
    ])
    def test_non_positive_rate_raises(self, params):
        with pytest.raises(NonPositiveRate):
            SchemeParams(*params)


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

    def test_kz_zero_flags_y_only(self):
        # a zero z-Lipschitz constant is what marks a driver constant in z
        assert arctan_gen(kz=0.0).lip_z == 0.0

    def test_negative_c_and_kz_give_absolute_constants(self):
        gen = arctan_gen(c=-3.0, kz=-1.0)
        assert (gen.lip_y, gen.lip_z, gen.monotonicity) == (4.0, 1.0, -4.0)

    @pytest.mark.parametrize("name, key", [
        ("arctan-const-sigma", "c"), ("arctan-const-sigma", "kz"),
        ("arctan-tanh-sigma", "eps"), ("linear-constant", "mu"),
        ("linear-constant", "c0"), ("linear-constant", "mu0_std")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_override_named(self, name, key, value):
        with pytest.raises(ValueError, match="overrides must be finite") as exc:
            problem_by_name(name, 1, {key: value})
        assert f"'{key}': {value}" in str(exc.value)


class TestProblemConstants:
    """``PROBLEM_CONSTANTS`` is the one list of the problems' constants and
    defaults: the command line's override flags and the defaults that
    ``problem_by_name`` uses come from it."""

    @pytest.mark.parametrize("command", ["grid-solve", "rate-study",
                                         "nn-picard", "nn-direct",
                                         "contraction"])
    def test_override_flags_are_the_table_keys(self, command):
        keys = dict.fromkeys(key for constants in PROBLEM_CONSTANTS.values()
                             for key in constants)
        expected = [f"--{key}" for key in keys] + ["--mu0-std"]
        assert expected == ["--c", "--kz", "--eps", "--mu", "--c0",
                            "--mu0-std"]
        subparsers, = [action for action in build_parser()._actions
                       if action.dest == "command"]
        flags = [flag for action in subparsers.choices[command]._actions
                 if action.dest in _SPREAD["overrides"]
                 for flag in action.option_strings]
        assert flags == expected

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_defaults_are_the_table_values(self, name):
        d = 1 if name == "arctan-tanh-sigma" else 2
        default = problem_by_name(name, d).gen
        explicit = problem_by_name(name, d,
                                   overrides=PROBLEM_CONSTANTS[name]).gen
        for attr in ("dim_y", "lip_y", "lip_z", "monotonicity"):
            assert getattr(default, attr) == getattr(explicit, attr)
        gen = np.random.default_rng(5)
        x, y, z = (gen.normal(size=(4, d)), gen.normal(size=(4, 1)),
                   gen.normal(size=(4, 1, d)))
        np.testing.assert_array_equal(default.f(x, y, z), explicit.f(x, y, z))

    def test_another_problems_constant_is_rejected(self):
        with pytest.raises(ValueError, match=r"unsupported override\(s\) for "
                           r"'arctan-const-sigma': \['eps'\]"):
            problem_by_name("arctan-const-sigma", 1, {"eps": 0.5})


class TestGeneratorSpec:
    @pytest.mark.parametrize("constants", [
        dict(lip_y=-1.0), dict(lip_z=-0.5), dict(lip_y=np.nan),
        dict(lip_z=np.inf), dict(monotonicity=-np.inf),
        dict(monotonicity=1.5)])
    def test_bad_constants_rejected(self, constants):
        # a driver Lipschitz in y with constant lip_y has a monotonicity
        # constant of at most lip_y
        with pytest.raises(ValueError):
            GeneratorSpec(**{"dim_y": 1, "f": lambda x, y, z: -y,
                             "lip_y": 1.0, "lip_z": 0.0,
                             "monotonicity": 1.0, **constants})


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
            lip_y=1.0, lip_z=0.0, monotonicity=1.0)
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
        coef = sde.coefficients(x)
        sig = coef.diffusion
        drift = np.zeros_like(x) if coef.drift is None else coef.drift
        ssq = np.einsum("mak,mbk->mab", sig, sig)
        op = 0.5 * np.einsum("miab,mab->mi", hess_u(x), ssq)
        op += np.einsum("mij,mj->mi", grad_u(x), drift)
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
        x[:6] = np.array([0.0, -0.0, 1e-300, -1e60, 1e12, -1e-12])[:, None]
        y = gen.normal(size=(m, 1))
        z = gen.normal(size=(m, 1, dim))
        # bytes, so that a -0.0 where the formula has +0.0 shows
        assert problem.gen.f(x, y, z).tobytes() == reference(x, y, z).tobytes()
        grad_u = captured["ingredients"][1]
        np.testing.assert_array_equal(
            problem.analytic.ubar(x),
            np.einsum("mij,mjk->mik", grad_u(x),
                      sde.coefficients(x).diffusion))


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
        coef = sde.coefficients(x)
        assert sde.is_brownian
        assert coef.drift is None
        for unit in (coef.diffusion, coef.inverse_diffusion):
            np.testing.assert_array_equal(
                unit, np.broadcast_to(np.eye(3), (4, 3, 3)))
        assert coef.diffusion_jacobian is None and coef.drift_jacobian is None

    def test_tanh_sigma_inverse(self):
        coef = tanh_sigma_sde(0.9).coefficients(np.linspace(-5, 5, 41)[:, None])
        prod = np.einsum("mij,mjk->mik", coef.diffusion,
                         coef.inverse_diffusion)
        np.testing.assert_allclose(prod, np.ones((41, 1, 1)), atol=1e-10)

    def test_tanh_sigma_jacobian_matches_derivative(self):
        sde = tanh_sigma_sde(0.9)
        x = np.linspace(-2, 2, 9)[:, None]
        h = 1e-6
        fd = (sde.coefficients(x + h).diffusion
              - sde.coefficients(x - h).diffusion) / (2 * h)
        np.testing.assert_allclose(
            sde.coefficients(x).diffusion_jacobian[:, :, :, 0], fd, atol=1e-8)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.9, 0.999])
    def test_tanh_sigma_coefficients_equal_the_separate_formulas(self, eps):
        # one tanh feeds all three arrays; the bytes are those of the three
        # formulas evaluated separately, as the coefficients once were
        mags = np.concatenate([np.logspace(-300, 300, 601), [5e-324, np.inf]])
        x = np.concatenate([mags, -mags, [0.0, -0.0, np.nan]])[:, None]
        coef = tanh_sigma_sde(eps).coefficients(x)
        assert coef.drift is None and coef.drift_jacobian is None
        want = ((1.0 + eps * np.tanh(x))[:, :, None],
                1.0 / (1.0 + eps * np.tanh(x))[:, :, None],
                (eps * (1.0 - np.tanh(x) ** 2))[:, :, None, None])
        got = (coef.diffusion, coef.inverse_diffusion, coef.diffusion_jacobian)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

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


def spread(gen, shape):
    """Normal draws scaled over 16 decades, so any change of summation
    order shows in the last bits."""
    return gen.normal(size=shape) * 10.0 ** gen.uniform(-8.0, 8.0, shape)


class TestRowSum:
    """``row_sum`` against numpy's own last-axis reduction, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_contiguous(self, n):
        gen = np.random.default_rng(n)
        for shape in ((500, n), (300, 2, n)):
            a = spread(gen, shape)
            np.testing.assert_array_equal(row_sum(a), np.add.reduce(a, axis=-1))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_strided(self, n):
        gen = np.random.default_rng(100 + n)
        every_other = spread(gen, (400, 2 * n))[:, ::2]
        diagonal = np.diagonal(spread(gen, (400, 1, n, n)), axis1=2, axis2=3)
        for a in (every_other, diagonal):
            assert n == 1 or not a.flags.c_contiguous
            np.testing.assert_array_equal(row_sum(a), np.add.reduce(a, axis=-1))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_layout_does_not_matter(self, n):
        # the column-major layout interpolate returns sums as a C-ordered row
        a = spread(np.random.default_rng(200 + n), (400, 1, n))
        np.testing.assert_array_equal(row_sum(np.asfortranarray(a)),
                                      np.add.reduce(a, axis=-1))


def _old_arctan_formulas(dim, c, kz):
    """The arctan family's formulas as they read with numpy's reductions."""

    def u(x):
        return np.mean(np.arctan(x), axis=1, keepdims=True)

    def grad_u(x):
        return (1.0 / (dim * (1.0 + x**2)))[:, None, :]

    def hess_u(x):
        out = np.zeros((x.shape[0], 1, dim, dim))
        idx = np.arange(dim)
        out[:, 0, idx, idx] = -2.0 * x / (dim * (1.0 + x**2) ** 2)
        return out

    def f0(x, y, z):
        xn = np.linalg.norm(x, axis=1, keepdims=True)
        zn = np.linalg.norm(z, axis=2)
        return -c * y + np.cos(y + xn) + kz * np.sin(zn)

    def f0_y(x, y, z):
        xn = np.linalg.norm(x, axis=1, keepdims=True)
        return (-c - np.sin(y + xn))[:, :, None]

    def f0_z(x, y, z):
        zn = np.linalg.norm(z, axis=2, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(zn > 0, z / zn, 0.0)
        return (kz * np.cos(zn) * unit)[:, :, None, :]

    def operator(x):
        return 0.5 * np.trace(hess_u(x), axis1=2, axis2=3)

    def f(x, y, z):
        return f0(x, y, z) - operator(x) - f0(x, u(x), grad_u(x))

    return u, f0, f0_y, f0_z, operator, f


class TestShortAxisReductions:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 9])
    def test_driver_equals_numpy_reductions(self, monkeypatch, dim):
        captured = {}
        real = model_mod.manufacture_problem

        def spy(u, grad_u, hess_u, f0, sde, **kwargs):
            captured["f0"] = f0
            return real(u, grad_u, hess_u, f0, sde, **kwargs)

        monkeypatch.setattr(model_mod, "manufacture_problem", spy)
        problem = problem_by_name("arctan-const-sigma", dim,
                                  {"c": 1.5, "kz": 0.7})
        f0 = captured["f0"]
        u, ref_f0, ref_f0_y, ref_f0_z, operator, f = _old_arctan_formulas(
            dim, 1.5, 0.7)
        gen = np.random.default_rng(dim)
        m = 2000
        x = gen.normal(0.0, 3.0, (m, dim))
        y = gen.normal(size=(m, 1))
        z = gen.normal(size=(m, 1, dim))
        z[:5] = 0.0  # f0_z's zero-norm branch
        # z in the column-major layout interpolate returns, and in C order
        for z_in in (z, z.reshape(m, dim).T.copy().T.reshape(m, 1, dim)):
            np.testing.assert_array_equal(f0.f(x, y, z_in), ref_f0(x, y, z))
            np.testing.assert_array_equal(f0.f_y(x, y, z_in),
                                          ref_f0_y(x, y, z))
            np.testing.assert_array_equal(f0.f_z(x, y, z_in),
                                          ref_f0_z(x, y, z))
            np.testing.assert_array_equal(problem.gen.f(x, y, z_in),
                                          f(x, y, z))
        np.testing.assert_array_equal(problem.analytic.u(x), u(x))
        op, _ = problem.gen.x_terms(x)
        np.testing.assert_array_equal(op, operator(x))
