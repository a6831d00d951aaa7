"""Problem definitions: SDE coefficients, generators, manufactured solutions.

All coefficient callables are vectorized over a leading batch axis.  Points
are ``(m, d)`` arrays; generator values are ``(m, d')``; gradient-side values
(``ubar = grad u . sigma``) are ``(m, d', d)``.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np


class NonPositiveRate(ValueError):
    """A discount or horizon rate is not strictly positive."""


class InconsistentDerivatives(ValueError):
    """Supplied derivatives disagree with finite differences."""


class UnknownProblem(ValueError):
    """Requested problem name is not in the registry."""


def as_points(x, dim: int) -> np.ndarray:
    """Coerce ``x`` to a ``(m, dim)`` float array.

    A flat array of length ``dim`` is read as a single point, except in one
    dimension where a flat array is read as ``m`` separate points.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr[:, None] if dim == 1 else arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {np.shape(x)}")
    return arr


def row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, bit for bit as numpy sums a C-ordered row.

    Below 8 terms numpy adds a row left to right, but reduces a short last
    axis slowly; adding it column by column gives the same bits faster.
    From 8 terms numpy sums pairwise, but only along a last axis that is
    the innermost in memory, so longer rows go to ``np.add.reduce`` on a
    C-ordered copy (no copy when ``a`` already is one).  Either way the
    result does not depend on the memory layout of ``a``.
    """
    n = a.shape[-1]
    if not 0 < n < 8:
        return np.add.reduce(np.ascontiguousarray(a), axis=-1)
    out = a[..., 0].copy()
    for k in range(1, n):
        out += a[..., k]
    return out


class Coefficients(NamedTuple):
    """An SDE's coefficients at ``(m, d)`` points, from one evaluation.

    ``drift`` is ``(m, d)``; ``diffusion_jacobian[m, i, k, j]`` is the
    derivative of diffusion entry (i, k) in direction j.  ``None`` stands
    for a drift or Jacobian that is zero everywhere.
    """

    drift: Optional[np.ndarray]
    diffusion: np.ndarray
    inverse_diffusion: np.ndarray
    diffusion_jacobian: Optional[np.ndarray] = None
    drift_jacobian: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SdeSpec:
    """Forward dynamics dX = drift(X) dt + diffusion(X) dW.

    ``coefficients(x)`` returns them, the inverse diffusion and the
    Jacobians that the tangent process of non-Brownian dynamics needs.
    """

    dim: int
    coefficients: Callable[[np.ndarray], Coefficients]
    is_brownian: bool = False


@dataclass(frozen=True)
class GeneratorSpec:
    """Driver f(x, y, z) together with its structural constants.

    ``lip_y``/``lip_z`` are Lipschitz constants in y and z, ``monotonicity``
    is the dissipativity constant of f in y.  ``lip_z == 0`` means f does
    not depend on z.  The constants must be finite, the Lipschitz ones
    non-negative, and ``monotonicity`` at most ``lip_y``.

    ``f_y(x, y, z) -> (m, d', d')`` and ``f_z(x, y, z) -> (m, d', d', d)``
    are the driver Jacobians in y and z; they are optional and only needed
    by solvers that differentiate through the driver.

    ``x_terms(x)``, when supplied, computes the parts of f that depend on x
    alone; ``f(x, y, z, x_terms=x_terms(x))`` then equals ``f(x, y, z)``
    without recomputing them (see :func:`bind_driver`).
    """

    dim_y: int
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    lip_y: float
    lip_z: float
    monotonicity: float
    f_y: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    f_z: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    x_terms: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        constants = (self.lip_y, self.lip_z, self.monotonicity)
        if not np.isfinite(constants).all() or min(constants[:2]) < 0:
            raise ValueError("driver constants must be finite, lip_y and lip_z "
                             f"non-negative; got {constants}")
        if self.monotonicity > self.lip_y:
            raise ValueError("monotonicity cannot exceed lip_y")


def bind_driver(gen: GeneratorSpec, x: np.ndarray) -> Callable[
        [np.ndarray, np.ndarray], np.ndarray]:
    """``(y, z) -> gen.f(x, y, z)`` for a batch of points evaluated often.

    The x-only terms of a generator that supplies ``x_terms`` are computed
    here, once; other generators evaluate ``gen.f`` in full on every call.
    """
    if gen.x_terms is None:
        return lambda y, z: gen.f(x, y, z)
    terms = gen.x_terms(x)
    return lambda y, z: gen.f(x, y, z, x_terms=terms)


@dataclass(frozen=True)
class SchemeParams:
    """Free parameters of the randomized-horizon fixed-point representation.

    The value component is discounted at ``discount_y`` over an exponential
    horizon of rate ``exp_rate``; the gradient component is discounted at
    ``discount_z`` over a Gamma(1/2, gamma_rate) horizon.  Construction
    raises :class:`NonPositiveRate` unless every rate is finite and positive.
    """

    discount_y: float = 2.0
    discount_z: float = 2.0
    exp_rate: float = 1.5
    gamma_rate: float = 1.5

    def __post_init__(self):
        bad = [k for k, v in asdict(self).items() if not 0 < v < np.inf]
        if bad:
            raise NonPositiveRate(
                f"non-positive or non-finite parameter(s): {', '.join(bad)}")


@dataclass(frozen=True)
class RunConfig:
    """Settings every run shares: the problem and its constant overrides
    (the start-law width ``mu0_std`` among them), the scheme parameters,
    the Euler step ``dt`` (non-Brownian dynamics only) and the seed.

    Construction raises ValueError unless the problem builds, its
    dynamics have the Euler step they need and the seed is non-negative.
    It keeps the problem it built as ``built_problem``, which the solvers
    read, so a run builds its problem once; ``dataclasses.replace``
    builds it anew.
    """

    problem: str
    dim: int = 1
    overrides: Optional[dict] = None
    params: SchemeParams = field(default_factory=SchemeParams)
    dt: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        # the problem_by_name global of the module that defines the class,
        # else this module's: an entry point the benchmark's tracer wraps
        build = getattr(sys.modules.get(type(self).__module__),
                        "problem_by_name", problem_by_name)
        problem = build(self.problem, self.dim, self.overrides)
        check_step(problem.sde, self.dt)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # an attribute, not a field: the fields are the settings
        object.__setattr__(self, "built_problem", problem)


@dataclass(frozen=True)
class AnalyticSolution:
    """Known solution pair: u(x) -> (m, d') and ubar(x) -> (m, d', d);
    calling it gives both, as a candidate pair."""

    u: Callable[[np.ndarray], np.ndarray]
    ubar: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> Tuple[np.ndarray, np.ndarray]:
        return self.u(x), self.ubar(x)


@dataclass(frozen=True)
class Problem:
    """SDE + generator, an optional analytic solution, and the start law.

    ``mu0_std`` parameterizes the isotropic Gaussian N(0, mu0_std^2 I) used
    to draw starting points for training and error estimation.
    """

    name: str
    sde: SdeSpec
    gen: GeneratorSpec
    analytic: Optional[AnalyticSolution] = None
    mu0_std: float = 2.0


def monotonicity_margin(gen: GeneratorSpec) -> float:
    """``2*monotonicity - lip_z**2``; the representation may fail to
    contract where it is negative.  The discount-above-rate conditions are
    reported by ``analysis.contraction_report``."""
    return 2.0 * gen.monotonicity - gen.lip_z**2


def check_dim(dim: int) -> None:
    """Raise ValueError unless ``dim`` is an integer of at least 1."""
    if not isinstance(dim, numbers.Integral) or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")


def check_step(sde: SdeSpec, dt: Optional[float]) -> None:
    """Raise ValueError unless ``sde`` is Brownian or ``dt`` is a finite
    positive step."""
    if not sde.is_brownian and not (dt is not None and 0 < dt < np.inf):
        raise ValueError("a finite dt > 0 is required for non-Brownian dynamics")


def _check_derivative(fn, args: tuple, which: int, h: float, derivative,
                      name: str, of: str) -> None:
    """Raise InconsistentDerivatives unless ``derivative(*args)`` matches
    central differences of ``fn(*args)`` with step ``h`` in each per-row
    entry of argument ``which``, stacked on trailing axes."""
    base = args[which]
    shape = base.shape[1:]
    columns = []
    for index in np.ndindex(shape):
        step = np.zeros(shape)
        step[index] = h
        plus, minus = list(args), list(args)
        plus[which], minus[which] = base + step, base - step
        columns.append((fn(*plus) - fn(*minus)) / (2 * h))
    fd = np.stack(columns, axis=-1).reshape(columns[0].shape + shape)
    if not np.allclose(fd, derivative(*args), rtol=1e-4, atol=1e-6):
        raise InconsistentDerivatives(
            f"{name} disagrees with finite differences of {of}")


def _check_derivatives(u, grad_u, hess_u, gen: GeneratorSpec,
                       dim: int) -> None:
    """Spot-check grad_u against u, hess_u against grad_u, and the driver
    Jacobians f_y/f_z, where supplied, against f."""
    x = np.random.default_rng(1234).normal(0.0, 1.0, (6, dim))
    _check_derivative(u, (x,), 0, 1e-5, grad_u, "grad_u", "u")
    _check_derivative(grad_u, (x,), 0, 1e-5, hess_u, "hess_u", "grad_u")
    rng = np.random.default_rng(4321)
    args = (rng.normal(0.0, 1.0, (6, dim)), rng.normal(0.0, 1.0, (6, gen.dim_y)),
            rng.normal(0.0, 1.0, (6, gen.dim_y, dim)))
    for which, name in ((1, "f_y"), (2, "f_z")):
        if getattr(gen, name) is not None:
            _check_derivative(gen.f, args, which, 1e-6, getattr(gen, name),
                              name, "f")


def manufacture_problem(
    u, grad_u, hess_u,
    f0: GeneratorSpec,
    sde: SdeSpec,
    mu0_std: float = Problem.mu0_std,
    name: str = "manufactured",
) -> Problem:
    """Build a problem whose exact solution is the supplied ``u``.

    The generator is ``f(x,y,z) = f0(x,y,z) + g(x)`` with the x-only
    correction ``g`` chosen so that u solves the semi-linear elliptic
    equation  1/2 Tr(hess_u sigma sigma^T) + drift . grad_u + f(x, u, ubar) = 0
    with ubar = grad_u . sigma.  The correction does not change the
    Lipschitz/monotonicity constants, which are copied from ``f0``; the same
    holds for the ``f_y``/``f_z`` Jacobians, carried over unchanged.  The
    generator's ``x_terms`` are the two parts of ``g``: the operator term
    and ``f0(x, u, ubar)``.
    """
    _check_derivatives(u, grad_u, hess_u, f0, sde.dim)

    def ubar_terms(x):
        # grad_u, the SDE's coefficients and ubar = grad_u . sigma, from one
        # evaluation each; Brownian dynamics (sigma = I) need no coefficients
        grad = grad_u(x)
        if sde.is_brownian:
            return grad, None, grad
        coef = sde.coefficients(x)
        return grad, coef, np.einsum("mij,mjk->mik", grad, coef.diffusion)

    def correction_terms(x):
        # 1/2 Tr(hess_u sigma sigma^T) + drift . grad_u, shape (m, d'), and
        # f0(x, u, ubar), from one ubar_terms evaluation
        x = as_points(x, sde.dim)
        grad, coef, ubar_x = ubar_terms(x)
        if sde.is_brownian:
            # sigma = I and drift = 0: the products with them change no value
            op = 0.5 * row_sum(np.diagonal(hess_u(x), axis1=2, axis2=3))
        else:
            sig = coef.diffusion
            ssq = np.einsum("mak,mbk->mab", sig, sig)
            op = 0.5 * np.einsum("miab,mab->mi", hess_u(x), ssq)
            # skipping a zero drift is exact: op, an einsum sum, is never -0.0
            if coef.drift is not None:
                op += np.einsum("mij,mj->mi", grad, coef.drift)
        return op, f0.f(x, u(x), ubar_x)

    def f(x, y, z, x_terms=None):
        x = as_points(x, sde.dim)
        op, at_solution = correction_terms(x) if x_terms is None else x_terms
        return f0.f(x, y, z) - op - at_solution

    gen = replace(f0, f=f, x_terms=correction_terms)
    analytic = AnalyticSolution(
        u=lambda x: u(as_points(x, sde.dim)),
        ubar=lambda x: ubar_terms(as_points(x, sde.dim))[2])
    return Problem(name=name, sde=sde, gen=gen, analytic=analytic, mu0_std=mu0_std)


def brownian_sde(dim: int) -> SdeSpec:
    """Driftless unit-diffusion dynamics, flagged for exact sampling."""
    eye = np.eye(dim)

    def coefficients(x):
        unit = np.broadcast_to(eye, (x.shape[0], dim, dim))
        return Coefficients(drift=None, diffusion=unit, inverse_diffusion=unit)

    return SdeSpec(dim=dim, coefficients=coefficients, is_brownian=True)


def tanh_sigma_sde(eps: float) -> SdeSpec:
    """One-dimensional dynamics with diffusion 1 + eps*tanh(x), no drift."""
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1) so the diffusion stays positive")

    def coefficients(x):
        th = np.tanh(x)
        sig = (1.0 + eps * th)[:, :, None]
        return Coefficients(
            drift=None, diffusion=sig, inverse_diffusion=1.0 / sig,
            diffusion_jacobian=(eps * (1.0 - th ** 2))[:, :, None, None])

    return SdeSpec(dim=1, coefficients=coefficients, is_brownian=False)


def _arctan_family(dim: int, c: float, kz: float, sde: SdeSpec, mu0_std: float,
                   name: str) -> Problem:
    """Manufactured problem with u(x) = mean(arctan(x_i))."""

    def u(x):
        return (row_sum(np.arctan(x)) / dim)[:, None]

    def grad_u(x):
        return (1.0 / (dim * (1.0 + x**2)))[:, None, :]

    def hess_u(x):
        m = x.shape[0]
        out = np.zeros((m, 1, dim, dim))
        idx = np.arange(dim)
        out[:, 0, idx, idx] = -2.0 * x / (dim * (1.0 + x**2) ** 2)
        return out

    def f0(x, y, z):
        xn = np.sqrt(row_sum(x * x))[:, None]
        zn = np.sqrt(row_sum(z * z))
        return -c * y + np.cos(y + xn) + kz * np.sin(zn)

    def f0_y(x, y, z):
        xn = np.sqrt(row_sum(x * x))[:, None]
        return (-c - np.sin(y + xn))[:, :, None]

    def f0_z(x, y, z):
        zn = np.sqrt(row_sum(z * z))[..., None]
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(zn > 0, z / zn, 0.0)
        return (kz * np.cos(zn) * unit)[:, :, None, :]

    # |f0_y| <= |c| + 1 and |f0_z| <= |kz|, whatever the signs of c and kz
    gen0 = GeneratorSpec(
        dim_y=1,
        f=f0,
        lip_y=abs(c) + 1.0,
        lip_z=abs(kz),
        monotonicity=c - 1.0,
        f_y=f0_y,
        f_z=f0_z,
    )
    return manufacture_problem(u, grad_u, hess_u, gen0, sde, mu0_std=mu0_std, name=name)


def _linear_constant(dim: int, mu: float, c0: float, mu0_std: float) -> Problem:
    """f = -mu*y + c0 under Brownian dynamics; solution u = c0/mu, ubar = 0."""
    if mu <= 0:
        raise ValueError("mu must be positive for a well-posed constant solution")
    level = c0 / mu

    def u(x):
        return np.full((x.shape[0], 1), level)

    def grad_u(x):
        return np.zeros((x.shape[0], 1, dim))

    def hess_u(x):
        return np.zeros((x.shape[0], 1, dim, dim))

    def f0(x, y, z):
        return -mu * y + c0

    def f0_y(x, y, z):
        return np.full((x.shape[0], 1, 1), -mu)

    def f0_z(x, y, z):
        return np.zeros((x.shape[0], 1, 1, dim))

    gen0 = GeneratorSpec(
        dim_y=1,
        f=f0,
        lip_y=mu,
        lip_z=0.0,
        monotonicity=mu,
        f_y=f0_y,
        f_z=f0_z,
    )
    return manufacture_problem(u, grad_u, hess_u, gen0, brownian_sde(dim),
                               mu0_std=mu0_std, name="linear-constant")


# each registered problem's constants and their defaults; the start-law
# width ``mu0_std`` (``Problem.mu0_std`` by default) belongs to every problem
PROBLEM_CONSTANTS = {
    "arctan-const-sigma": {"c": 2.0, "kz": 0.5},
    "arctan-tanh-sigma": {"c": 2.0, "kz": 0.5, "eps": 0.9},
    "linear-constant": {"mu": 2.0, "c0": 3.0},
}
PROBLEM_NAMES = tuple(PROBLEM_CONSTANTS)


def problem_by_name(name: str, d: int = 1, overrides: Optional[dict] = None) -> Problem:
    """Construct a registered problem.

    Parameters
    ----------
    name : one of ``PROBLEM_NAMES``.
    d : state dimension (``arctan-tanh-sigma`` requires d=1).
    overrides : optional map of problem constants; supported keys are the
        problem's keys in ``PROBLEM_CONSTANTS``, and ``mu0_std``.
    """
    check_dim(d)
    ov = {key: float(value) for key, value in (overrides or {}).items()}
    bad = {key: value for key, value in ov.items() if not np.isfinite(value)}
    if bad:
        raise ValueError(f"problem overrides must be finite, not {bad}")
    mu0_std = ov.pop("mu0_std", Problem.mu0_std)
    if mu0_std < 0:
        raise ValueError(f"mu0_std must be non-negative, not {mu0_std}")
    if name not in PROBLEM_CONSTANTS:
        raise UnknownProblem(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    if name == "arctan-tanh-sigma" and d != 1:
        raise ValueError("arctan-tanh-sigma is one-dimensional")
    defaults = PROBLEM_CONSTANTS[name]
    unknown = sorted(set(ov) - set(defaults))
    if unknown:
        raise ValueError(f"unsupported override(s) for {name!r}: {unknown}")
    const = {**defaults, **ov}
    if name == "linear-constant":
        return _linear_constant(d, const["mu"], const["c0"], mu0_std)
    sde = (brownian_sde(d) if name == "arctan-const-sigma"
           else tanh_sigma_sde(const["eps"]))
    return _arctan_family(d, const["c"], const["kz"], sde, mu0_std, name)
