"""Randomized-horizon sampling of the forward SDE and its Malliavin weight.

Horizons are drawn as E ~ Exp(exp_rate) for the value component and
G ~ Gamma(1/2, gamma_rate) for the gradient component.  Brownian dynamics
are sampled exactly; general dynamics run Euler-Maruyama jointly for the
state and its tangent process, with a left-point Ito sum for the Malliavin
integral.  Horizons are rounded up to the time grid so paths land exactly
on their stopping index.

Randomness comes from counter-based Philox streams addressed by
(master_seed, stream_id, lineage), so results do not depend on scheduling.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .model import Problem, SchemeParams, SdeSpec, as_points


class DegenerateDiffusion(ArithmeticError):
    """Diffusion matrix became numerically singular along a path."""


@dataclass(frozen=True)
class RngStream:
    """Addressable, reproducible random stream.

    Two streams with different ``(stream_id, lineage)`` under the same
    master seed are statistically independent; the same address always
    reproduces the same sequence.  ``substream`` derives a child address.
    """

    master_seed: int
    stream_id: int = 0
    lineage: tuple = ()

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.master_seed, spawn_key=(self.stream_id, *self.lineage)
        )
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_id, self.lineage + (int(index),))


RngLike = Union[int, RngStream, np.random.Generator]


def _as_stream(rng: Union[int, RngStream]) -> RngStream:
    """An int seed ``s`` names the stream ``RngStream(s)``."""
    if isinstance(rng, RngStream):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng))
    raise TypeError(f"cannot use {type(rng)!r} as a random stream")


def _as_generator(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return _as_stream(rng).generator()


def sample_exponential(rng: RngLike, rate: float, size=None) -> np.ndarray:
    """Draw Exp(rate) horizons (mean 1/rate)."""
    return _as_generator(rng).exponential(1.0 / rate, size=size)


def sample_gamma_half(rng: RngLike, rate: float, size=None) -> np.ndarray:
    """Draw Gamma(1/2, rate) horizons as Z^2/(2*rate), Z standard normal.

    The representation is exact: Gamma(1/2, 1) is the law of Z^2/2 and a
    rate change rescales by 1/rate.
    """
    z = _as_generator(rng).standard_normal(size=size)
    return z * z / (2.0 * rate)


@dataclass(frozen=True)
class FkSample:
    """One randomized-horizon draw used by the fixed-point estimator."""

    e_time: float
    g_time: float
    x_at_e: np.ndarray
    x_at_g: np.ndarray
    malliavin_at_g: np.ndarray


@dataclass(frozen=True)
class FkBatch:
    """Vectorized draws: times are (m,), states (m, d)."""

    e_time: np.ndarray
    g_time: np.ndarray
    x_at_e: np.ndarray
    x_at_g: np.ndarray
    malliavin_at_g: np.ndarray

    def __len__(self) -> int:
        return self.e_time.shape[0]

    @classmethod
    def concatenate(cls, batches: Sequence["FkBatch"]) -> "FkBatch":
        """Stack batches row-wise, in order."""
        return cls(*(np.concatenate([getattr(b, f.name) for b in batches])
                     for f in fields(cls)))

    def row(self, i: int) -> FkSample:
        return FkSample(
            float(self.e_time[i]),
            float(self.g_time[i]),
            self.x_at_e[i].copy(),
            self.x_at_g[i].copy(),
            self.malliavin_at_g[i].copy(),
        )


@dataclass
class PathState:
    """Terminal state of Euler paths run to a common horizon (batched)."""

    x: np.ndarray
    tangent: np.ndarray
    malliavin_integral: np.ndarray
    t: float


def _brownian_fk_batch(params: SchemeParams, starts: np.ndarray,
                       gen: np.random.Generator) -> FkBatch:
    m, d = starts.shape
    e = gen.exponential(1.0 / params.exp_rate, m)
    z = gen.standard_normal(m)
    g = z * z / (2.0 * params.gamma_rate)
    z1 = gen.standard_normal((m, d))
    z2 = gen.standard_normal((m, d))
    sqrt_g = np.sqrt(g)
    return FkBatch(
        e_time=e,
        g_time=g,
        x_at_e=starts + np.sqrt(e)[:, None] * z1,
        x_at_g=starts + sqrt_g[:, None] * z2,
        malliavin_at_g=z2 / sqrt_g[:, None],
    )


def _frobenius(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("mij,mij->m", a, a))


def _euler_fk_batch(sde: SdeSpec, params: SchemeParams, starts: np.ndarray,
                    dt: float, gen: np.random.Generator) -> FkBatch:
    """Simulate one path per sample, evaluated at both rounded horizons."""
    m, d = starts.shape
    e_raw = gen.exponential(1.0 / params.exp_rate, m)
    zg = gen.standard_normal(m)
    g_raw = zg * zg / (2.0 * params.gamma_rate)
    n_e = np.maximum(np.ceil(e_raw / dt).astype(np.int64), 1)
    n_g = np.maximum(np.ceil(g_raw / dt).astype(np.int64), 1)
    n_max = np.maximum(n_e, n_g)

    # ascending sort by total steps: the active set at step k is a suffix
    order = np.argsort(n_max, kind="stable")
    unsort = np.empty(m, dtype=np.int64)
    unsort[order] = np.arange(m)
    n_e_s = n_e[order]
    n_g_s = n_g[order]
    n_max_s = n_max[order]

    x = starts[order].copy()
    tangent = np.broadcast_to(np.eye(d), (m, d, d)).copy()
    integral = np.zeros((m, d))
    x_at_e = np.empty((m, d))
    x_at_g = np.empty((m, d))
    integral_at_g = np.empty((m, d))
    sig_start = sde.diffusion(starts[order])
    sqrt_dt = np.sqrt(dt)

    for k in range(1, int(n_max_s[-1]) + 1):
        s = np.searchsorted(n_max_s, k, side="left")
        xa = x[s:]
        ja = tangent[s:]
        dw = gen.standard_normal((m - s, d)) * sqrt_dt
        sig = sde.diffusion(xa)
        siginv = sde.inverse_diffusion(xa)
        cond = _frobenius(sig) * _frobenius(siginv)
        if np.max(cond) > 1e12:
            raise DegenerateDiffusion(
                f"condition estimate {np.max(cond):.3g} at step {k}"
            )
        # left-point Ito increments use the pre-update state and tangent
        integral[s:] += np.einsum("mi,mij->mj", dw, siginv @ ja)
        if sde.diffusion_jacobian is not None:
            dj = np.einsum("mikj,mjl,mk->mil", sde.diffusion_jacobian(xa), ja, dw)
        else:
            dj = 0.0
        if sde.drift_jacobian is not None:
            dj = dj + np.einsum("mij,mjl->mil", sde.drift_jacobian(xa), ja) * dt
        xa += sde.drift(xa) * dt + np.einsum("mij,mj->mi", sig, dw)
        if not np.isscalar(dj):
            ja += dj
        done_e = n_e_s[s:] == k
        if done_e.any():
            x_at_e[s:][done_e] = xa[done_e]
        done_g = n_g_s[s:] == k
        if done_g.any():
            x_at_g[s:][done_g] = xa[done_g]
            integral_at_g[s:][done_g] = integral[s:][done_g]

    g_time_s = n_g_s * dt
    malliavin = np.einsum("mi,mij->mj", integral_at_g, sig_start) / g_time_s[:, None]
    return FkBatch(
        e_time=(n_e * dt).astype(float),
        g_time=(n_g * dt).astype(float),
        x_at_e=x_at_e[unsort],
        x_at_g=x_at_g[unsort],
        malliavin_at_g=malliavin[unsort],
    )


def sample_fk_batch(problem: Problem, params: SchemeParams, x, m: int,
                    dt: Optional[float], rng: RngLike) -> FkBatch:
    """Draw ``m`` randomized-horizon samples.

    ``x`` is a single starting point or a batch of exactly ``m`` points
    (one sample per point).  ``dt`` is required for non-Brownian dynamics
    and ignored otherwise.
    """
    d = problem.sde.dim
    starts = as_points(x, d)
    if starts.shape[0] == 1 and m > 1:
        starts = np.broadcast_to(starts, (m, d))
    if starts.shape[0] != m:
        raise ValueError(f"need 1 or {m} starting points, got {starts.shape[0]}")
    gen = _as_generator(rng)
    if problem.sde.is_brownian:
        return _brownian_fk_batch(params, np.ascontiguousarray(starts, float), gen)
    if dt is None or dt <= 0:
        raise ValueError("dt > 0 is required for non-Brownian dynamics")
    return _euler_fk_batch(problem.sde, params, np.ascontiguousarray(starts, float),
                           dt, gen)


def simulate_fk_sample(problem: Problem, params: SchemeParams, x,
                       dt: Optional[float], rng: RngLike) -> FkSample:
    """Draw a single randomized-horizon sample at ``x``."""
    return sample_fk_batch(problem, params, x, 1, dt, rng).row(0)


def _point_stream(rng: RngStream, point: np.ndarray) -> RngStream:
    """Derive a stream keyed by the point's coordinates, not its position."""
    digest = hashlib.blake2b(
        np.ascontiguousarray(point, dtype=float).tobytes(), digest_size=8
    ).digest()
    return rng.substream(int.from_bytes(digest, "little"))


def simulate_batch(problem: Problem, params: SchemeParams, xs,
                   m: int, dt: Optional[float], rng: RngStream) -> list:
    """Draw ``m`` independent FkSamples per starting point.

    Returns one :class:`FkBatch` per point.  Each point consumes a stream
    derived from its own coordinates, so per-point sample sets do not
    depend on the ordering of ``xs``.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    points = as_points(xs, problem.sde.dim)
    return [
        sample_fk_batch(problem, params, p, m, dt, _point_stream(rng, p))
        for p in points
    ]


def simulate_paths(sde: SdeSpec, x, horizon: float, dt: float, m: int,
                   rng: RngLike) -> PathState:
    """Run ``m`` Euler paths of (X, tangent, Malliavin integral) to a fixed time.

    The horizon is rounded up to a whole number of steps.  Used for
    diagnostics and tests; the production samplers round each random
    horizon the same way.
    """
    d = sde.dim
    starts = as_points(x, d)
    if starts.shape[0] == 1 and m > 1:
        starts = np.broadcast_to(starts, (m, d))
    gen = _as_generator(rng)
    n_steps = max(int(np.ceil(horizon / dt)), 1)
    x_cur = np.ascontiguousarray(starts, float).copy()
    tangent = np.broadcast_to(np.eye(d), (m, d, d)).copy()
    integral = np.zeros((m, d))
    sqrt_dt = np.sqrt(dt)
    for _ in range(n_steps):
        dw = gen.standard_normal((m, d)) * sqrt_dt
        sig = sde.diffusion(x_cur)
        siginv = sde.inverse_diffusion(x_cur)
        integral += np.einsum("mi,mij->mj", dw, siginv @ tangent)
        if sde.diffusion_jacobian is not None:
            dj = np.einsum("mikj,mjl,mk->mil",
                           sde.diffusion_jacobian(x_cur), tangent, dw)
        else:
            dj = 0.0
        if sde.drift_jacobian is not None:
            dj = dj + np.einsum("mij,mjl->mil", sde.drift_jacobian(x_cur), tangent) * dt
        x_cur += sde.drift(x_cur) * dt + np.einsum("mij,mj->mi", sig, dw)
        if not np.isscalar(dj):
            tangent += dj
    return PathState(x=x_cur, tangent=tangent, malliavin_integral=integral,
                     t=n_steps * dt)
