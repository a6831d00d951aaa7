"""Single-draw estimator of the fixed-point map, its MC mean, and truncation.

A candidate pair ``w`` is any callable from ``(m, d)`` points to a value
block ``(m, d')`` and a gradient-side block ``(m, d', d)``.  One
randomized-horizon draw turns ``w`` into an unbiased sample of the
fixed-point map applied to ``w``; averaging draws estimates the map itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .model import Problem, SchemeParams, as_points
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


def one_draw_terms(f_value: np.ndarray, u: np.ndarray, shift: float,
                   weight: np.ndarray,
                   malliavin: Optional[np.ndarray] = None) -> np.ndarray:
    """One-draw terms ``(f + shift * u) * weight`` ``(m, d')`` at horizon
    states, times the Malliavin weight ``(m, d)`` when given: ``(m, d', d)``."""
    phi = (f_value + shift * u) * weight[:, None]
    return phi if malliavin is None else phi[:, :, None] * malliavin[:, None, :]


def r_sample_batch(problem: Problem, params: SchemeParams, w: Candidate,
                   fk: FkBatch) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized single-draw estimates; no finiteness check (see callers)."""
    weight_e, weight_g = one_draw_weights(params, fk)

    def terms(x, shift, weight, malliavin=None):
        # the candidate's arrays are freed before the other branch runs
        u, z = w(x)
        return one_draw_terms(problem.gen.f(x, u, z), u, shift, weight,
                              malliavin)

    return (terms(fk.x_at_e, params.discount_y, weight_e),
            terms(fk.x_at_g, params.discount_z, weight_g, fk.malliavin_at_g))


def point_means(comps: Sequence[np.ndarray], labels: Sequence,
                noun: str = "point") -> Tuple[np.ndarray, ...]:
    """Mean of each array in ``comps`` over each of ``len(labels)`` equal
    blocks of consecutive rows, one per point, bit for bit as over the block
    alone; NonFiniteValue names the label of the first non-finite point."""
    k = len(labels)
    means = tuple(c.reshape(k, -1, *c.shape[1:]).mean(axis=1) for c in comps)
    finite = np.all([np.isfinite(mean).reshape(k, -1).all(axis=1)
                     for mean in means], axis=0)
    if not finite.all():
        raise NonFiniteValue(
            f"non-finite mean at {noun} {labels[int(np.argmin(finite))]}")
    return means


@dataclass(frozen=True)
class PhiEstimate:
    """MC means of the fixed-point map at ``k`` points, ``(k, d')`` and
    ``(k, d', d)``, their standard errors alike, and the draws per point."""

    value: Tuple[np.ndarray, np.ndarray]
    std_err: Tuple[np.ndarray, np.ndarray]
    m: int


def estimate_phi(problem: Problem, params: SchemeParams, w: Candidate, x,
                 m: int, dt: Optional[float],
                 rng: Union[RngStream, Sequence[RngStream]]) -> PhiEstimate:
    """Monte Carlo estimate of the fixed-point map applied to ``w`` at the
    ``k`` points ``x`` (read by :func:`as_points`), ``m >= 2`` draws each.
    ``rng`` is one stream for all draws or, as in :func:`sample_fk_batch`,
    one per point, and point ``i`` then equals a call with ``rng[i]`` alone.
    """
    starts = as_points(x, problem.sde.dim)
    k = len(starts)
    if m < 2 or k < 1:
        raise ValueError("need at least 2 samples at each of at least one "
                         f"point, got {m} at {k}")
    if isinstance(rng, Sequence) and len(rng) != k:
        raise ValueError(f"need one stream or one per point ({k}), "
                         f"got {len(rng)}")
    fk = sample_fk_batch(problem, params, np.repeat(starts, m, axis=0),
                         k * m, dt, rng)
    comps = r_sample_batch(problem, params, w, fk)
    std_err = tuple(c.reshape(k, m, *c.shape[1:]).std(axis=1, ddof=1)
                    / np.sqrt(m) for c in comps)
    return PhiEstimate(point_means(comps, range(k)), std_err, m)


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
