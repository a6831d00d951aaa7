"""Single-draw estimator of the fixed-point map, its MC mean, and truncation.

A candidate pair ``w`` is any callable from ``(m, d)`` points to a value
block ``(m, d')`` and a gradient-side block ``(m, d', d)``.  One
randomized-horizon draw turns ``w`` into an unbiased sample of the
fixed-point map applied to ``w``; averaging draws estimates the map itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .model import Problem, SchemeParams
from .simulate import FkBatch, RngStream, sample_fk_batch


Candidate = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


class NonFiniteValue(ArithmeticError):
    """An estimator component is NaN or infinite (candidate blow-up)."""


def poly_weight(x, degree: float) -> np.ndarray:
    """Polynomial growth weight 1 + |x|^degree, batched over points."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim <= 1:
        return 1.0 + np.linalg.norm(np.atleast_1d(pts)) ** degree
    return 1.0 + np.linalg.norm(pts, axis=1) ** degree


def one_draw_weights(params: SchemeParams,
                     fk: FkBatch) -> Tuple[np.ndarray, np.ndarray]:
    """Per-draw discount weights of the value and gradient components."""
    weight_e = np.exp(-(params.discount_y - params.exp_rate) * fk.e_time)
    weight_e /= params.exp_rate
    weight_g = (
        np.sqrt(np.pi / params.gamma_rate)
        * np.sqrt(fk.g_time)
        * np.exp(-(params.discount_z - params.gamma_rate) * fk.g_time)
    )
    return weight_e, weight_g


def r_sample_batch(problem: Problem, params: SchemeParams, w: Candidate,
                   fk: FkBatch) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized single-draw estimates; no finiteness check (see callers)."""
    weight_e, weight_g = one_draw_weights(params, fk)

    def scaled(x, discount, weight):
        # (f + discount * u) * weight at the candidate's values in x; the
        # candidate's arrays are freed before the other branch runs
        u, z = w(x)
        return (problem.gen.f(x, u, z) + discount * u) * weight[:, None]

    comp1 = scaled(fk.x_at_e, params.discount_y, weight_e)
    comp2 = (scaled(fk.x_at_g, params.discount_z, weight_g)[:, :, None]
             * fk.malliavin_at_g[:, None, :])
    return comp1, comp2


@dataclass(frozen=True)
class PhiEstimate:
    """MC mean of the fixed-point map with componentwise standard errors."""

    value: Tuple[np.ndarray, np.ndarray]
    std_err: Tuple[np.ndarray, np.ndarray]
    m: int


def estimate_phi_from_samples(problem: Problem, params: SchemeParams,
                              w: Candidate, fk: FkBatch) -> PhiEstimate:
    """Reduce an existing sample batch to a PhiEstimate."""
    m = len(fk)
    if m < 2:
        raise ValueError("need at least 2 samples for standard errors")
    comp1, comp2 = r_sample_batch(problem, params, w, fk)
    mean1 = comp1.mean(axis=0)
    mean2 = comp2.mean(axis=0)
    if not (np.isfinite(mean1).all() and np.isfinite(mean2).all()):
        raise NonFiniteValue("estimator mean is not finite")
    scale = np.sqrt(m)
    return PhiEstimate(
        value=(mean1, mean2),
        std_err=(comp1.std(axis=0, ddof=1) / scale, comp2.std(axis=0, ddof=1) / scale),
        m=m,
    )


def estimate_phi(problem: Problem, params: SchemeParams, w: Candidate, x,
                 m: int, dt: Optional[float], rng: RngStream) -> PhiEstimate:
    """Monte Carlo estimate of the fixed-point map applied to ``w`` at ``x``."""
    fk = sample_fk_batch(problem, params, x, m, dt, rng)
    return estimate_phi_from_samples(problem, params, w, fk)


def truncate_growth(value: Tuple[np.ndarray, np.ndarray], x, bound: float,
                    degree: float) -> Tuple[np.ndarray, np.ndarray]:
    """Growth truncation: scale down values outside a weighted joint ball.

    ``value/poly_weight(x, degree)`` is projected onto the Euclidean ball of
    radius ``bound`` in the joint (d' + d'*d)-dimensional space, then
    rescaled, for per-node batches ``u`` ``(n, d')``, ``ubar`` ``(n, d', d)``
    at points ``x`` ``(n, d)``.  Idempotent and 1-Lipschitz in the value.
    """
    u, ubar = value
    rho = poly_weight(x, degree)
    norm = np.sqrt(np.sum(u**2, axis=1) + np.sum(ubar**2, axis=(1, 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norm > 0, np.minimum(1.0, bound * rho / norm), 1.0)
    return u * scale[:, None], ubar * scale[:, None, None]
