"""Single-draw estimator of the fixed-point map, its MC mean, and truncation.

A candidate pair ``w = (w1, w2)`` maps points to a value in R^{d'} and a
gradient-side value in R^{d' x d}.  One randomized-horizon draw turns ``w``
into an unbiased sample of the fixed-point map applied to ``w``; averaging
draws estimates the map itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .model import Problem, SchemeParams, as_points
from .simulate import FkBatch, RngLike, sample_fk_batch


class NonFiniteValue(ArithmeticError):
    """An estimator component is NaN or infinite (candidate blow-up)."""


def poly_weight(x, degree: float) -> np.ndarray:
    """Polynomial growth weight 1 + |x|^degree, batched over points."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim <= 1:
        return 1.0 + np.linalg.norm(np.atleast_1d(pts)) ** degree
    return 1.0 + np.linalg.norm(pts, axis=1) ** degree


class CandidatePair:
    """Evaluatable pair; calling with (m, d) points yields ((m, d'), (m, d', d))."""

    def __init__(self, fn: Callable, dim_x: int, dim_y: int, label: str = "candidate"):
        self._fn = fn
        self.dim_x = dim_x
        self.dim_y = dim_y
        self.label = label

    def __call__(self, x) -> Tuple[np.ndarray, np.ndarray]:
        return self._fn(as_points(x, self.dim_x))

    def __repr__(self) -> str:
        return f"CandidatePair({self.label}, d={self.dim_x}, d'={self.dim_y})"

    @classmethod
    def zero(cls, dim_x: int, dim_y: int) -> "CandidatePair":
        def fn(x):
            m = x.shape[0]
            return np.zeros((m, dim_y)), np.zeros((m, dim_y, dim_x))

        return cls(fn, dim_x, dim_y, "zero")

    @classmethod
    def from_analytic(cls, problem: Problem) -> "CandidatePair":
        if problem.analytic is None:
            raise ValueError(f"problem {problem.name!r} has no analytic solution")
        sol = problem.analytic
        return cls(lambda x: (sol.u(x), sol.ubar(x)),
                   problem.sde.dim, problem.gen.dim_y, "analytic")


def as_candidate(obj) -> CandidatePair:
    """Coerce a CandidatePair, network, or grid function to a CandidatePair."""
    if isinstance(obj, CandidatePair):
        return obj
    from .grid import GridFunction  # local import keeps module layering acyclic

    if isinstance(obj, GridFunction):
        return obj.as_candidate()
    if callable(obj) and hasattr(obj, "dim_x") and hasattr(obj, "dim_y"):
        return CandidatePair(lambda x: obj(x), obj.dim_x, obj.dim_y,
                             getattr(obj, "label", type(obj).__name__))
    raise TypeError(f"cannot interpret {type(obj)!r} as a candidate pair")


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


def r_sample_batch(problem: Problem, params: SchemeParams, w: CandidatePair,
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
                              w: CandidatePair, fk: FkBatch) -> PhiEstimate:
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


def estimate_phi(problem: Problem, params: SchemeParams, w: CandidatePair, x,
                 m: int, dt: Optional[float], rng: RngLike) -> PhiEstimate:
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
