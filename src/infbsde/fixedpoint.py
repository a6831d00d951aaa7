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

from .model import Problem, SchemeParams, block_sum
from .simulate import FkBatch, RngStream, sample_fk_batch


Candidate = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


class NonFiniteValue(ArithmeticError):
    """An estimator component is NaN or infinite (candidate blow-up)."""


def poly_weight(x, degree: float) -> np.ndarray:
    """Polynomial growth weight 1 + |x|^degree at each of the ``(m, d)``
    points ``x``."""
    return 1.0 + np.linalg.norm(x, axis=1) ** degree


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


Branch = Tuple[np.ndarray, float, np.ndarray, Optional[np.ndarray]]


def branches(params: SchemeParams, fk: FkBatch) -> Tuple[Branch, Branch]:
    """The map's value and gradient branches ``(x, shift, weight,
    malliavin)``: at ``fk.x_at_e``, shifted by ``discount_y``, without a
    Malliavin weight, and at ``fk.x_at_g``, by ``discount_z``, with one."""
    weight_e, weight_g = one_draw_weights(params, fk)
    return ((fk.x_at_e, params.discount_y, weight_e, None),
            (fk.x_at_g, params.discount_z, weight_g, fk.malliavin_at_g))


def one_draw_terms(branch: Branch, f_value: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """A branch's one-draw terms ``(f + shift * u) * weight`` ``(m, d')`` at
    its states, times its Malliavin weight ``(m, d)`` if any: ``(m, d', d)``."""
    _, shift, weight, malliavin = branch
    phi = (f_value + shift * u) * weight[:, None]
    return phi if malliavin is None else phi[:, :, None] * malliavin[:, None, :]


def r_sample_batch(problem: Problem, params: SchemeParams, w: Candidate,
                   fk: FkBatch) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized single-draw estimates; no finiteness check (see callers)."""
    def terms(branch):
        # the candidate's arrays are freed before the other branch runs
        u, z = w(branch[0])
        return one_draw_terms(branch, problem.gen.f(branch[0], u, z), u)

    return tuple(terms(branch) for branch in branches(params, fk))


def point_means(comps: Sequence[np.ndarray], labels: Sequence,
                noun: str = "point") -> Tuple[np.ndarray, ...]:
    """Mean of each array in ``comps`` over each of ``len(labels)`` equal
    blocks of consecutive rows, one per point, bit for bit as over the block
    alone (``mean(axis=1)``); NonFiniteValue names the label of the first
    non-finite point."""
    k = len(labels)
    means = tuple(block_sum(c.reshape(k, -1, *c.shape[1:])) / (len(c) // k)
                  for c in comps)
    finite = np.all([np.isfinite(mean).reshape(k, -1).all(axis=1)
                     for mean in means], axis=0)
    if not finite.all():
        raise NonFiniteValue(
            f"non-finite mean at {noun} {labels[int(np.argmin(finite))]}")
    return means


def point_std_errs(comps: Sequence[np.ndarray],
                   k: int) -> Tuple[np.ndarray, ...]:
    """Standard error ``std(ddof=1) / sqrt(m)`` of each array in ``comps`` over
    each of ``k`` equal blocks of ``m`` consecutive rows.  Each block is first
    scaled by the power of two of its largest magnitude, which is exact, so
    squares of huge or tiny draws neither overflow nor underflow."""
    def std_err(blocks):
        exp = np.frexp(np.abs(blocks).max(axis=1, keepdims=True))[1]
        std = np.ldexp(blocks, -exp).std(axis=1, ddof=1, keepdims=True)
        return np.ldexp(std / np.sqrt(blocks.shape[1]), exp)[:, 0]

    return tuple(std_err(c.reshape(k, -1, *c.shape[1:])) for c in comps)


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
    ``rng`` is one stream for all draws or one per point, as in
    :func:`sample_fk_batch`; point ``i`` then equals a call with ``rng[i]``.
    """
    if m < 2:
        raise ValueError(f"need at least 2 samples at each point, got {m}")
    fk = sample_fk_batch(problem, params, x, m, dt, rng)
    comps = r_sample_batch(problem, params, w, fk)
    k = len(fk) // m
    return PhiEstimate(point_means(comps, range(k)), point_std_errs(comps, k), m)


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
