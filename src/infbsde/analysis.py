"""Contraction-constant formulas, Monte Carlo estimates, and bounds.

The fixed-point map contracts in a weighted sup norm with a constant built
from two kernel norms (value and gradient channels) and from how far the
generator's Lipschitz constant can be shifted by the discounting.  This
module evaluates those formulas, estimates the kernel norms by simulation,
and computes the Brownian-case integral constants by quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np
from scipy import integrate

from .fixedpoint import one_draw_weights, poly_weight
from .model import Problem, SchemeParams
from .simulate import RngStream, _as_stream, sample_fk_batch


class InvalidP(ValueError):
    """The integrability exponent violates a constraint."""


class QuadratureFailure(ArithmeticError):
    """Adaptive quadrature could not reach the requested tolerance."""


@dataclass(frozen=True)
class ContractionInputs:
    """Constants feeding the contraction formulas.

    ``lip_y``/``lip_z``/``monotonicity`` describe the generator;
    ``discount_y``/``discount_z`` and the two sampling rates come from the
    scheme; ``c_inf``/``c_tilde_inf`` are the kernel norms (exact or
    estimated); ``c_p``/``c_tilde_p``/``c_tilde_p_bis`` are the integral
    constants that :func:`kappa_p` needs.
    """

    lip_y: float
    lip_z: float = 0.0
    monotonicity: float = 0.0
    discount_y: float = 2.0
    discount_z: float = 2.0
    exp_rate: float = 1.5
    gamma_rate: float = 1.5
    c_inf: float = 0.0
    c_tilde_inf: float = 0.0
    depends_on_z: bool = True
    c_p: Optional[float] = None
    c_tilde_p: Optional[float] = None
    c_tilde_p_bis: Optional[float] = None

    def __post_init__(self):
        for name in ("lip_y", "lip_z", "discount_y", "discount_z",
                     "exp_rate", "gamma_rate", "c_inf", "c_tilde_inf"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def lipschitz_shift(lip_y: float, monotonicity: float, discount: float) -> float:
    """Effective Lipschitz constant of the discounted driver in y."""
    radicand = lip_y**2 - 2.0 * monotonicity * discount + discount**2
    if radicand < 0:
        raise ValueError("monotonicity exceeds what the Lipschitz bound allows")
    return math.sqrt(radicand)


def brownian_c_infinity(discount_y: float, discount_z: float,
                        dim: int = 1) -> Tuple[float, float]:
    """Exact kernel norms for unit Brownian dynamics and weight degree 0."""
    c_inf = 1.0 / discount_y
    c_tilde = math.sqrt(2.0 * math.pi / discount_z) \
        * math.gamma((dim + 1) / 2.0) / math.gamma(dim / 2.0)
    return c_inf, c_tilde


def kappa_infinity(inputs: ContractionInputs) -> float:
    """Contraction constant of the fixed-point map in the weighted sup norm."""
    shift_y = lipschitz_shift(inputs.lip_y, inputs.monotonicity,
                              inputs.discount_y)
    if not inputs.depends_on_z:
        return inputs.c_inf * shift_y
    shift_z = lipschitz_shift(inputs.lip_y, inputs.monotonicity,
                              inputs.discount_z)
    return math.sqrt(
        inputs.c_inf**2 * max(shift_y, inputs.lip_z) ** 2
        + inputs.c_tilde_inf**2 * max(shift_z, inputs.lip_z) ** 2
    )


def kappa_p(inputs: ContractionInputs, p: float) -> float:
    """Contraction constant in the p-mean norm over the start distribution."""
    if p <= 1:
        raise InvalidP("p must exceed 1")
    a, a_t, theta = inputs.discount_y, inputs.discount_z, inputs.exp_rate
    if a * p <= theta:
        raise InvalidP(f"need discount_y * p > exp_rate, got {a * p} <= {theta}")
    shift_y = lipschitz_shift(inputs.lip_y, inputs.monotonicity, a)
    if not inputs.depends_on_z:
        if inputs.c_p is None:
            raise ValueError("c_p is required")
        return ((1.0 / theta) ** (1.0 / p)
                * ((p - 1.0) / (a * p - theta)) ** ((p - 1.0) / p)
                * inputs.c_p * shift_y)
    if inputs.c_p is None or inputs.c_tilde_p is None \
            or inputs.c_tilde_p_bis is None:
        raise ValueError("c_p, c_tilde_p and c_tilde_p_bis are required")
    shift_z = lipschitz_shift(inputs.lip_y, inputs.monotonicity, a_t)
    term1 = (1.0 / theta) * ((p - 1.0) / (a * p - theta)) ** (p - 1.0) \
        * inputs.c_p**p * max(shift_y, inputs.lip_z) ** p
    term2 = inputs.c_tilde_p_bis * inputs.c_tilde_p**p \
        * max(shift_z, inputs.lip_z) ** p
    return (term1 + term2) ** (1.0 / p)


@dataclass(frozen=True)
class CEstimate:
    c_inf: float
    c_inf_se: float
    c_tilde_inf: float
    c_tilde_inf_se: float
    probe_argmax: Tuple[int, int]


def estimate_c_constants(problem: Problem, params: SchemeParams,
                         weight_degree: float, probe_points: np.ndarray,
                         m: int, dt: Optional[float] = None,
                         rng: Union[int, RngStream] = 0) -> CEstimate:
    """Probe-max Monte Carlo estimate of the two kernel norms.

    The sup over all starting points is replaced by a max over the probe
    set, so the estimate is a lower bound up to Monte Carlo error.
    """
    if m < 2:
        raise ValueError("need at least 2 samples for standard errors")
    probes = np.atleast_2d(np.asarray(probe_points, dtype=float))
    if probes.shape[0] == 0:
        raise ValueError("probe set must be non-empty")
    base = _as_stream(rng)

    def mean_se(vals: np.ndarray, k: int) -> Tuple[float, float, int]:
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(m)), k

    best1 = (-np.inf, 0.0, 0)
    best2 = (-np.inf, 0.0, 0)
    for k, x in enumerate(probes):
        fk = sample_fk_batch(problem, params, x, m, dt, base.substream(k))
        w_x = poly_weight(x, weight_degree)
        weight_e, weight_g = one_draw_weights(params, fk)
        w1 = mean_se(weight_e * poly_weight(fk.x_at_e, weight_degree) / w_x, k)
        u_norm = np.linalg.norm(fk.malliavin_at_g, axis=1)
        w2 = mean_se(weight_g * u_norm
                     * poly_weight(fk.x_at_g, weight_degree) / w_x, k)
        if w1[0] > best1[0]:
            best1 = w1
        if w2[0] > best2[0]:
            best2 = w2
    return CEstimate(best1[0], best1[1], best2[0], best2[1],
                     (best1[2], best2[2]))


_QUAD_RTOL = 1e-8


def _quad(fn, lo, hi) -> float:
    value, abserr = integrate.quad(fn, lo, hi, epsabs=1e-14, epsrel=1e-12,
                                   limit=200)
    if abserr > _QUAD_RTOL * max(abs(value), 1e-300):
        raise QuadratureFailure(
            f"estimated error {abserr} too large for value {value}")
    return value


def gaussian_radial_moment(q: float, dim: int) -> float:
    """Integral of (1 + |y|)^q against the standard Gaussian on R^dim."""
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
    if p <= 1:
        raise InvalidP("p must exceed 1")
    q = p * growth_degree + dim + 1

    def t_weight(t: float) -> float:
        return max(t, 1.0) ** (q / 2.0)

    t_int = _quad(lambda t: t_weight(t) * exp_rate * math.exp(-exp_rate * t),
                  0.0, 1.0)
    t_int += _quad(lambda t: t_weight(t) * exp_rate * math.exp(-exp_rate * t),
                   1.0, np.inf)
    # substitute t = s^2 on [0,1] to remove the 1/sqrt(t) endpoint singularity
    coeff = math.sqrt(gamma_rate / math.pi)
    t_int_tilde = _quad(lambda s: 2.0 * coeff * math.exp(-gamma_rate * s * s),
                        0.0, 1.0)
    t_int_tilde += _quad(
        lambda t: t_weight(t) / math.sqrt(t) * coeff * math.exp(-gamma_rate * t),
        1.0, np.inf)
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
    bound = math.sqrt(c_inf**2 + c_tilde_inf**2) \
        * (math.sqrt(2.0 * delta * lip_y) + lip_z)
    return bound, bound < 1.0


@dataclass(frozen=True)
class ReportRow:
    name: str
    value: float
    status: str


def contraction_report(inputs: ContractionInputs,
                       p: Optional[float] = None) -> List[ReportRow]:
    """Named constants and pass/fail notes, ready for CSV serialization."""
    rows = [
        ReportRow("lip_y", inputs.lip_y, ""),
        ReportRow("lip_z", inputs.lip_z, ""),
        ReportRow("monotonicity", inputs.monotonicity, ""),
        ReportRow("discount_y", inputs.discount_y,
                  "ok" if inputs.discount_y > inputs.exp_rate
                  else "violated: discount_y <= exp_rate"),
        ReportRow("discount_z", inputs.discount_z,
                  "ok" if inputs.discount_z > inputs.gamma_rate
                  else "violated: discount_z <= gamma_rate"),
        ReportRow("shift_y",
                  lipschitz_shift(inputs.lip_y, inputs.monotonicity,
                                  inputs.discount_y), ""),
        ReportRow("shift_z",
                  lipschitz_shift(inputs.lip_y, inputs.monotonicity,
                                  inputs.discount_z), ""),
        ReportRow("c_inf", inputs.c_inf, ""),
        ReportRow("c_tilde_inf", inputs.c_tilde_inf, ""),
    ]
    k_inf = kappa_infinity(inputs)
    rows.append(ReportRow("kappa_inf", k_inf,
                          "contraction" if k_inf < 1 else "not a contraction"))
    bound, ok = simplified_contraction_check(
        inputs.lip_y, inputs.monotonicity, inputs.lip_z, inputs.c_inf,
        inputs.c_tilde_inf)
    rows.append(ReportRow("simplified_bound", bound,
                          "contraction" if ok else "not a contraction"))
    if p is not None:
        try:
            k_p = kappa_p(inputs, p)
            rows.append(ReportRow(f"kappa_p(p={p:g})", k_p,
                                  "contraction" if k_p < 1
                                  else "not a contraction"))
        except (InvalidP, ValueError) as exc:
            rows.append(ReportRow(f"kappa_p(p={p:g})", float("nan"), str(exc)))
    return rows
