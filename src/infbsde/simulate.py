"""Randomized-horizon sampling of the forward SDE and its Malliavin weight.

Horizons are drawn as E ~ Exp(exp_rate) for the value component and
G ~ Gamma(1/2, gamma_rate) for the gradient component, the latter exactly
as Z^2/(2*gamma_rate) with Z standard normal.  Brownian dynamics are
sampled exactly; general dynamics run Euler-Maruyama jointly for the state
and its tangent process, with a left-point Ito sum for the Malliavin
integral.  Horizons are rounded up to the time grid so paths land exactly
on their stopping index.

Randomness comes from counter-based Philox streams addressed by
(master_seed, stream_id, lineage), so results do not depend on scheduling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .model import Problem, SchemeParams, SdeSpec, as_points, check_step


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


def check_stream(rng) -> RngStream:
    """``rng`` itself; a TypeError unless it is an :class:`RngStream`."""
    if not isinstance(rng, RngStream):
        raise TypeError(f"need an RngStream, got {type(rng).__name__}")
    return rng


def sample_mu0(problem: Problem, rng: RngStream, m: int) -> np.ndarray:
    """``m`` points ``(m, d)`` from the start law N(0, mu0_std^2 I), by ``rng``."""
    return check_stream(rng).generator().normal(
        0.0, problem.mu0_std, size=(m, problem.sde.dim))


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


def _brownian_fk_batch(params: SchemeParams, starts: np.ndarray,
                       gens: Sequence[np.random.Generator]) -> FkBatch:
    m, d = starts.shape
    b = m // len(gens)
    draws = [(gen.exponential(1.0 / params.exp_rate, b), gen.standard_normal(b),
              gen.standard_normal((b, d)), gen.standard_normal((b, d)))
             for gen in gens]
    e, z, z1, z2 = (np.concatenate(part) for part in zip(*draws))
    del draws  # each node's draws would otherwise outlive their concatenation
    g = z * z / (2.0 * params.gamma_rate)
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


def _euler_step(sde: SdeSpec, x: np.ndarray, tangent: np.ndarray,
                integral: np.ndarray, dw: np.ndarray, dt: float,
                step: int) -> None:
    """Advance rows of (X, tangent, Malliavin integral) one Euler step in place.

    Evaluates ``sde.coefficients`` once.  Raises :class:`DegenerateDiffusion`
    when the diffusion is numerically singular, or its condition estimate
    not finite, at any row.

    In one dimension each contraction is a plain product, taken in the
    einsum's order, and the condition estimate is |sigma * sigma^-1|, the
    Frobenius product wherever neither square over- or underflows.  A
    one-term einsum sum turns a -0.0 product into +0.0 where the product
    keeps it; that changes a sum only when it is added to a -0.0.  Rows
    never hold one: the sampler adds +0.0 to the start states and starts the
    tangent at 1 and the integral at +0.0, and ``a + b`` is -0.0 only when
    both are.  So the two paths give the same bits, and so does leaving out
    the +0.0 of a zero (``None``) drift.
    """
    coef = sde.coefficients(x)
    sig, siginv = coef.diffusion, coef.inverse_diffusion
    dsig, db = coef.diffusion_jacobian, coef.drift_jacobian
    scalar = x.shape[1] == 1
    # a 1-d diffusion collapsed to zero shows as 0 * inf = nan
    with np.errstate(invalid="ignore", over="ignore"):
        cond = (np.abs(sig[:, 0] * siginv[:, 0]) if scalar
                else _frobenius(sig) * _frobenius(siginv)).max()
    if not cond <= 1e12:
        raise DegenerateDiffusion(f"condition estimate {cond:.3g} at step {step}")
    # left-point Ito increments use the pre-update state and tangent
    if scalar:
        t = tangent[:, 0]
        integral += dw * (siginv[:, 0] * t)
        dj = 0.0 if dsig is None else dsig[:, 0, 0] * t * dw
        if db is not None:
            dj = dj + db[:, 0] * t * dt
        dx = sig[:, 0] * dw
        t += dj
    else:
        integral += np.einsum("mi,mij->mj", dw, siginv @ tangent)
        dj = 0.0 if dsig is None else np.einsum("mikj,mjl,mk->mil", dsig,
                                                tangent, dw)
        if db is not None:
            dj = dj + np.einsum("mij,mjl->mil", db, tangent) * dt
        dx = np.einsum("mij,mj->mi", sig, dw)
        if not np.isscalar(dj):
            tangent += dj
    if coef.drift is not None:
        dx += coef.drift * dt
    x += dx


# Float64 normals drawn ahead per window of consecutive Euler steps; a window
# holds at least one step.  Caps the increment buffer near 2 MB however many
# steps a call runs, with one draw call per block and window instead of one
# per block and step.
WINDOW_VALUES = 1 << 18


def _horizon_ends(n: np.ndarray, order: np.ndarray, n_steps: int):
    """Rows whose horizon ``n`` ends at each step.

    Returns their loop positions and output rows, grouped by step, and the
    cut list: step ``j + 1`` owns entries ``cuts[j]:cuts[j + 1]``.
    """
    n_loop = n[order]
    by_end = np.argsort(n_loop, kind="stable")
    cuts = np.searchsorted(n_loop[by_end], np.arange(1, n_steps + 2))
    return by_end, order[by_end], cuts.tolist()


def _euler_fk_batch(sde: SdeSpec, params: SchemeParams, starts: np.ndarray,
                    dt: float, gens: Sequence[np.random.Generator]) -> FkBatch:
    """Simulate one path per row, evaluated at both rounded horizons.

    Row block ``i`` takes from ``gens[i]`` exactly the draws a call on that
    block alone would: its horizons, then per step one increment for each
    of its running rows, in the block's stable order of step counts.  All
    blocks share one Euler loop.
    """
    m, d = starts.shape
    n_blocks = len(gens)
    b = m // n_blocks
    horizons = [(gen.exponential(1.0 / params.exp_rate, b), gen.standard_normal(b))
                for gen in gens]
    e_raw, zg = (np.concatenate(part) for part in zip(*horizons))
    g_raw = zg * zg / (2.0 * params.gamma_rate)
    n_e = np.maximum(np.ceil(e_raw / dt).astype(np.int64), 1)
    n_g = np.maximum(np.ceil(g_raw / dt).astype(np.int64), 1)
    n_max = np.maximum(n_e, n_g)
    n_steps = int(n_max.max())

    # Loop over rows in stable ascending order of total steps: the rows
    # running at step k are a suffix, and each block's rows keep the order
    # in which that block draws their increments.
    order = np.argsort(n_max, kind="stable")
    width = n_steps + 1
    # finished[i, j]: rows of block i done after j steps, so the other
    # running[i, j] rows take step j + 1; drawn[i, j]: increments block i
    # draws for steps 1..j; first[j]: loop position of the running suffix
    finished = np.cumsum(np.bincount(np.arange(m) // b * width + n_max,
                                     minlength=n_blocks * width)
                         .reshape(n_blocks, width), axis=1)[:, :n_steps]
    running = b - finished
    drawn = np.zeros((n_blocks, width), dtype=np.int64)
    np.cumsum(running, axis=1, out=drawn[:, 1:])
    drawn_all = drawn.sum(axis=0)
    first = (m - running.sum(axis=0)).tolist()
    block = order // b
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(block, kind="stable")] = np.arange(m) % b
    e_rows, e_dest, e_cuts = _horizon_ends(n_e, order, n_steps)
    g_rows, g_dest, g_cuts = _horizon_ends(n_g, order, n_steps)

    x = starts[order] + 0.0  # no -0.0 rows (see _euler_step)
    tangent = np.broadcast_to(np.eye(d), (m, d, d)).copy()
    integral = np.zeros((m, d))
    # states at each row's horizons, in order of the step that ends them
    x_e, x_g, integral_g = (np.empty((m, d)) for _ in range(3))
    noise = np.empty(min(max(WINDOW_VALUES, m * d), int(drawn_all[-1]) * d))
    sqrt_dt = np.sqrt(dt)

    j0 = 0
    while j0 < n_steps:
        j1 = int(np.searchsorted(drawn_all, drawn_all[j0] + WINDOW_VALUES // d,
                                 side="right")) - 1
        j1 = max(j1, j0 + 1)
        per_block = drawn[:, j1] - drawn[:, j0]
        base = np.cumsum(per_block) - per_block
        for gen, lo, n in zip(gens, base.tolist(), per_block.tolist()):
            gen.standard_normal(out=noise[lo * d:(lo + n) * d])
        dws = noise[:int(per_block.sum()) * d].reshape(-1, d)
        dws *= sqrt_dt
        # the step-(j+1) increment of the rank-r running row of block i
        # sits at dws[shift[j - j0, i] + r]
        shift = ((base - drawn[:, j0])[:, None] + drawn[:, j0:j1]
                 - finished[:, j0:j1]).T
        for j in range(j0, j1):
            s = first[j]
            # in-range indices: take(mode="clip") is indexing, unbuffered
            at = shift[j - j0].take(block[s:], mode="clip")
            at += rank[s:]
            dw = dws.take(at, axis=0, mode="clip")
            _euler_step(sde, x[s:], tangent[s:], integral[s:], dw, dt, j + 1)
            lo, hi = e_cuts[j], e_cuts[j + 1]
            if lo < hi:
                x.take(e_rows[lo:hi], axis=0, out=x_e[lo:hi], mode="clip")
            lo, hi = g_cuts[j], g_cuts[j + 1]
            if lo < hi:
                rows = g_rows[lo:hi]
                x.take(rows, axis=0, out=x_g[lo:hi], mode="clip")
                integral.take(rows, axis=0, out=integral_g[lo:hi], mode="clip")
        j0 = j1

    # the spent loop arrays x and integral take the outputs in row order
    x_at_e, integral_at_g, x_at_g = x, integral, np.empty((m, d))
    x_at_e[e_dest], integral_at_g[g_dest], x_at_g[g_dest] = x_e, integral_g, x_g

    g_time = n_g * dt
    malliavin = np.einsum("mi,mij->mj", integral_at_g,
                          sde.coefficients(starts).diffusion) / g_time[:, None]
    return FkBatch(
        e_time=n_e * dt,
        g_time=g_time,
        x_at_e=x_at_e,
        x_at_g=x_at_g,
        malliavin_at_g=malliavin,
    )


def sample_fk_batch(problem: Problem, params: SchemeParams, x, m: int,
                    dt: Optional[float],
                    rng: Union[RngStream, Sequence[RngStream]]) -> FkBatch:
    """Draw ``m`` randomized-horizon samples.

    ``x`` is a single starting point or a batch of exactly ``m`` points
    (one sample per point).  ``dt`` is required for non-Brownian dynamics
    and ignored otherwise.  ``rng`` is one stream, or a sequence of ``k``
    streams with ``m`` a multiple of ``k``: rows ``[i*m/k, (i+1)*m/k)``
    then come from ``rng[i]`` and equal a separate call on those rows with
    ``rng[i]`` alone.
    """
    d = problem.sde.dim
    starts = as_points(x, d)
    if starts.shape[0] == 1 and m > 1:
        starts = np.broadcast_to(starts, (m, d))
    if starts.shape[0] != m:
        raise ValueError(f"need 1 or {m} starting points, got {starts.shape[0]}")
    streams = rng if isinstance(rng, Sequence) else [rng]
    gens = [check_stream(r).generator() for r in streams]
    if not gens or m % len(gens):
        raise ValueError(f"{m} rows do not split into {len(gens)} equal blocks")
    check_step(problem.sde, dt)
    starts = np.ascontiguousarray(starts, float)
    if problem.sde.is_brownian:
        return _brownian_fk_batch(params, starts, gens)
    return _euler_fk_batch(problem.sde, params, starts, dt, gens)

