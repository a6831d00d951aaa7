"""Contraction-constant formulas, Monte Carlo estimates, and bounds.

The fixed-point map contracts in a weighted sup norm with a constant built
from two kernel norms (value and gradient channels) and from how far the
generator's Lipschitz constant can be shifted by the discounting.  This
module evaluates those formulas, estimates the kernel norms by simulation,
and computes the Brownian-case integral constants by quadrature.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .fixedpoint import branches, point_means, point_std_errs, poly_weight
from .model import GeneratorSpec, Problem, SchemeParams, as_points, check_dim
from .simulate import RngStream, check_stream, sample_fk_batch


class InvalidP(ValueError):
    """The integrability exponent violates a constraint."""


class QuadratureFailure(ArithmeticError):
    """Adaptive quadrature could not reach the requested tolerance."""


def _check_p(p: float) -> None:
    if not 1 < p < math.inf:
        raise InvalidP(f"p must be finite and exceed 1, got {p}")


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(
                f"{name} must be finite and positive, got {value}")


def lipschitz_shift(lip_y: float, monotonicity: float, discount: float) -> float:
    """Effective Lipschitz constant of the discounted driver in y."""
    radicand = lip_y**2 - 2.0 * monotonicity * discount + discount**2
    if radicand < 0:
        raise ValueError("monotonicity exceeds what the Lipschitz bound allows")
    return math.sqrt(radicand)


def brownian_c_infinity(discount_y: float, discount_z: float,
                        dim: int = 1) -> Tuple[float, float]:
    """Exact kernel norms for unit Brownian dynamics and weight degree 0."""
    _check_positive(discount_y=discount_y, discount_z=discount_z)
    check_dim(dim)
    c_inf = 1.0 / discount_y
    c_tilde = math.sqrt(2.0 * math.pi / discount_z) \
        * math.gamma((dim + 1) / 2.0) / math.gamma(dim / 2.0)
    return c_inf, c_tilde


def kappa_infinity(gen: GeneratorSpec, params: SchemeParams, c_inf: float,
                   c_tilde_inf: float) -> float:
    """Contraction constant of the fixed-point map in the weighted sup norm,
    from the kernel norms ``c_inf`` and ``c_tilde_inf``."""
    shift_y = lipschitz_shift(gen.lip_y, gen.monotonicity, params.discount_y)
    if gen.lip_z == 0:
        return c_inf * shift_y
    shift_z = lipschitz_shift(gen.lip_y, gen.monotonicity, params.discount_z)
    try:
        return math.sqrt(c_inf**2 * max(shift_y, gen.lip_z) ** 2
                         + c_tilde_inf**2 * max(shift_z, gen.lip_z) ** 2)
    except OverflowError:  # a square out of range: so is the constant
        return math.inf


def kappa_p(gen: GeneratorSpec, params: SchemeParams, p: float, c_p: float,
            c_tilde_p: Optional[float] = None,
            c_tilde_p_bis: Optional[float] = None) -> float:
    """Contraction constant in the p-mean norm over the start distribution.

    ``c_p``, ``c_tilde_p`` and ``c_tilde_p_bis`` are the integral
    constants; a driver that depends on z (``lip_z > 0``) needs all three.
    """
    _check_p(p)
    a, theta = params.discount_y, params.exp_rate
    if a * p <= theta:
        raise InvalidP(f"need discount_y * p > exp_rate, got {a * p} <= {theta}")
    shift_y = lipschitz_shift(gen.lip_y, gen.monotonicity, a)
    if gen.lip_z == 0:
        return ((1.0 / theta) ** (1.0 / p)
                * ((p - 1.0) / (a * p - theta)) ** ((p - 1.0) / p)
                * c_p * shift_y)
    if c_tilde_p is None or c_tilde_p_bis is None:
        raise ValueError("c_tilde_p and c_tilde_p_bis are required")
    shift_z = lipschitz_shift(gen.lip_y, gen.monotonicity, params.discount_z)
    term1 = (1.0 / theta) * ((p - 1.0) / (a * p - theta)) ** (p - 1.0) \
        * c_p**p * max(shift_y, gen.lip_z) ** p
    term2 = c_tilde_p_bis * c_tilde_p**p * max(shift_z, gen.lip_z) ** p
    return (term1 + term2) ** (1.0 / p)


@dataclass(frozen=True)
class CEstimate:
    c_inf: float
    c_inf_se: float
    c_tilde_inf: float
    c_tilde_inf_se: float


def estimate_c_constants(problem: Problem, params: SchemeParams,
                         weight_degree: float, probe_points: np.ndarray,
                         m: int, dt: Optional[float],
                         rng: RngStream) -> CEstimate:
    """Probe-max Monte Carlo estimate of the two kernel norms.

    The sup over all starting points is replaced by a max over the probe
    set, so the estimate is a lower bound up to Monte Carlo error.  Probe
    ``k`` draws from ``rng.substream(k)``; probes are read by
    :func:`as_points`, and ``weight_degree`` must be finite and >= 0.
    A probe whose mean is not finite raises NonFiniteValue naming it.
    """
    if m < 2:
        raise ValueError("need at least 2 samples for standard errors")
    if not 0 <= weight_degree < math.inf:
        raise ValueError(f"weight_degree must be finite and >= 0: {weight_degree}")
    probes = as_points(probe_points, problem.sde.dim)
    if probes.shape[0] == 0:
        raise ValueError("probe set must be non-empty")
    base = check_stream(rng)
    if problem.sde.is_brownian and weight_degree == 0:
        # the increments do not depend on the start and the weight ratio is
        # 1, so every probe estimates one number: their max adds only noise
        probes = probes[:1]

    # a weight out of range shows as a non-finite mean
    with np.errstate(over="ignore"):
        probe_weights = poly_weight(probes, weight_degree)
    means, std_errs = [], []
    for k, (x, w_x) in enumerate(zip(probes, probe_weights)):
        fk = sample_fk_batch(problem, params, x, m, dt, base.substream(k))
        table = branches(params, fk)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = tuple((weight if malliavin is None else weight
                          * np.linalg.norm(malliavin, axis=1))
                         * poly_weight(x, weight_degree) / w_x
                         for x, _, weight, malliavin in table)
            means.append(np.concatenate(point_means(vals, [k], "probe")))
            std_errs.append(np.concatenate(point_std_errs(vals, 1)))
    best = np.argmax(means, axis=0)
    return CEstimate(*(float(a[i][c]) for c, i in enumerate(best)
                       for a in (means, std_errs)))


_QUAD_RTOL = 1e-8


@contextlib.contextmanager
def _overflow_fails(inputs: str):
    """Re-raise an OverflowError as a failure naming its ``inputs``."""
    try:
        yield
    except OverflowError:
        raise QuadratureFailure(f"a float overflows at {inputs}") from None


def _quad(fn, lo, hi) -> float:
    # scipy.integrate is most of the package's import time and only the
    # quadratures need it, so it loads on the first one
    from scipy import integrate

    value, abserr = integrate.quad(fn, lo, hi, epsabs=1e-14, epsrel=1e-12,
                                   limit=200)
    # written so that a nan value or error estimate fails too
    if not (math.isfinite(value)
            and abserr <= _QUAD_RTOL * max(abs(value), 1e-300)):
        raise QuadratureFailure(
            f"estimated error {abserr} too large for value {value}")
    return value


def gaussian_radial_moment(q: float, dim: int) -> float:
    """Integral of (1 + |y|)^q against the standard Gaussian on R^dim."""
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    check_dim(dim)
    with _overflow_fails(f"q={q}, dim={dim}"):
        norm = 2.0 ** (dim / 2.0 - 1.0) * math.gamma(dim / 2.0)

        def integrand(s: float) -> float:
            return (1.0 + s) ** q * s ** (dim - 1) * math.exp(-0.5 * s * s) / norm

        return _quad(integrand, 0.0, np.inf)


def brownian_cp_constants(p: float, growth_degree: float, dim: int,
                          exp_rate: float, gamma_rate: float
                          ) -> Tuple[float, float]:
    """Integral constants for unit Brownian dynamics, by quadrature.

    Both are p-th roots of a product of a time integral against the
    randomization density, with the kink at t=1 split out, and a radial
    Gaussian moment.
    """
    _check_p(p)
    if not 0 <= growth_degree < math.inf:
        raise ValueError("growth_degree must be finite and non-negative, "
                         f"got {growth_degree}")
    check_dim(dim)
    _check_positive(exp_rate=exp_rate, gamma_rate=gamma_rate)
    q = p * growth_degree + dim + 1
    if not math.isfinite(q):
        raise ValueError(f"p * growth_degree + dim + 1 overflows, got {q}")

    def t_weight(t: float) -> float:
        return max(t, 1.0) ** (q / 2.0)

    def rate_weight(t: float) -> float:
        return t_weight(t) * exp_rate * math.exp(-exp_rate * t)

    with _overflow_fails(f"p={p}, growth_degree={growth_degree}, dim={dim}"):
        t_int = _quad(rate_weight, 0.0, 1.0) + _quad(rate_weight, 1.0, np.inf)
        # t = s^2 on [0,1] removes the 1/sqrt(t) endpoint singularity
        coeff = math.sqrt(gamma_rate / math.pi)
        t_int_tilde = _quad(
            lambda s: 2.0 * coeff * math.exp(-gamma_rate * s * s), 0.0, 1.0)
        t_int_tilde += _quad(lambda t: t_weight(t) / math.sqrt(t) * coeff
                             * math.exp(-gamma_rate * t), 1.0, np.inf)
    y_int = gaussian_radial_moment(q, dim)
    return (t_int * y_int) ** (1.0 / p), (t_int_tilde * y_int) ** (1.0 / p)


def simplified_contraction_check(
        lip_y: float, monotonicity: float, lip_z: float,
        c_inf: float, c_tilde_inf: float) -> Tuple[float, bool]:
    """Simplified contraction bound at discounts equal to the y-Lipschitz
    constant; conservative but cheap to check."""
    if lip_y < monotonicity:
        raise ValueError("lip_y must dominate the monotonicity constant")
    delta = lip_y - monotonicity
    try:
        norm = math.sqrt(c_inf**2 + c_tilde_inf**2)
    except OverflowError:  # a square out of range: so is the norm
        norm = math.inf
    bound = norm * (math.sqrt(2.0 * delta * lip_y) + lip_z)
    return bound, bound < 1.0


@dataclass(frozen=True)
class ReportRow:
    name: str
    value: float
    status: str


def contraction_report(gen: GeneratorSpec, params: SchemeParams,
                       c_inf: float, c_tilde_inf: float) -> List[ReportRow]:
    """Named constants and pass/fail notes, ready for CSV serialization."""
    k_inf = kappa_infinity(gen, params, c_inf, c_tilde_inf)
    bound, ok = simplified_contraction_check(
        gen.lip_y, gen.monotonicity, gen.lip_z, c_inf, c_tilde_inf)
    return [
        ReportRow("lip_y", gen.lip_y, ""),
        ReportRow("lip_z", gen.lip_z, ""),
        ReportRow("monotonicity", gen.monotonicity, ""),
        ReportRow("discount_y", params.discount_y,
                  "ok" if params.discount_y > params.exp_rate
                  else "violated: discount_y <= exp_rate"),
        ReportRow("discount_z", params.discount_z,
                  "ok" if params.discount_z > params.gamma_rate
                  else "violated: discount_z <= gamma_rate"),
        ReportRow("shift_y", lipschitz_shift(gen.lip_y, gen.monotonicity,
                                             params.discount_y), ""),
        ReportRow("shift_z", lipschitz_shift(gen.lip_y, gen.monotonicity,
                                             params.discount_z), ""),
        ReportRow("c_inf", c_inf, ""),
        ReportRow("c_tilde_inf", c_tilde_inf, ""),
        ReportRow("kappa_inf", k_inf,
                  "contraction" if k_inf < 1 else "not a contraction"),
        ReportRow("simplified_bound", bound,
                  "contraction" if ok else "not a contraction"),
    ]
