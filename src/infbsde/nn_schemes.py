"""Neural solvers: contraction-based Picard training and the direct scheme.

The Picard variant trains a fresh regression per outer iteration onto
one-draw targets of the fixed-point map applied to the previous (frozen)
net.  The direct variant keeps one net and one optimiser and descends the
sampled fixed-point residual itself, differentiating through the driver,
so it does not need the map to contract.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .fixedpoint import (Branch, Candidate, NonFiniteValue, branches,
                         one_draw_terms, r_sample_batch)
# problem_by_name builds this module's configs (RunConfig); the tracer wraps it
from .model import (GeneratorSpec, Problem, RunConfig, at_least, bind_driver,
                    problem_by_name)
from .neural import AdamState, Gradient, Mlp, Workspace, adam_step
from .simulate import FkBatch, RngStream, sample_fk_batch, sample_mu0


class MissingDriverDerivatives(ValueError):
    """The direct scheme differentiates the driver; it needs f_y and f_z."""


@dataclass(frozen=True)
class NnConfig(RunConfig):
    """Settings both neural schemes share; ``hidden`` defaults to two layers
    of ``20 + dim`` units.  ADAM's step size ``base_lr * lr_decay**(step //
    lr_decay_period)`` must be finite and positive, and must not grow."""

    hidden: Optional[Tuple[int, ...]] = at_least(1, None)
    m_err: int = at_least(1, 1000)
    base_lr: float = 5e-4
    lr_decay: float = 0.9
    lr_decay_period: int = at_least(1, 1000)

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.base_lr < math.inf:
            raise ValueError("base_lr must be finite and positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")

    def hidden_widths(self) -> Tuple[int, ...]:
        return self.hidden if self.hidden is not None else (20 + self.dim,) * 2


@dataclass(frozen=True)
class NnPicardConfig(NnConfig):
    """Contraction-based scheme: one regression problem per Picard iteration."""

    n_iters: int = at_least(1, 5)
    m_samples: int = at_least(1, 512)
    train_steps: int = at_least(0, 3000)
    warm_start: bool = True


@dataclass(frozen=True)
class DirectConfig(NnConfig):
    """Direct scheme: a single net trained across epochs of fresh data.

    The residual landscape is noisy and, for strongly z-dependent drivers,
    slow to traverse; the learning-rate schedule therefore starts higher
    and decays faster than the Picard regression's.
    """

    n_epochs: int = at_least(1, 30)
    steps_per_epoch: int = at_least(0, 75)
    m_starts: int = at_least(1, 512)
    m_inner: int = at_least(2, 100)  # the loss pairs two inner halves
    base_lr: float = 2e-3
    lr_decay: float = 0.8
    lr_decay_period: int = at_least(1, 300)


@dataclass(frozen=True)
class TraceRow:
    n: int
    loss: float
    rel_err_u: float
    rel_err_ubar: float
    seconds: float


@dataclass
class NnSolveResult:
    net: Mlp
    trace: List[TraceRow]
    nets: Optional[List[Mlp]] = None


def _ratio(num_sq: float, den_sq: float) -> float:
    if den_sq == 0.0:
        return 0.0 if num_sq == 0.0 else np.inf
    return float(np.sqrt(num_sq / den_sq))


def _rel_errors_at(candidate: Candidate, problem: Problem,
                   x: np.ndarray) -> Tuple[float, float]:
    """Relative L2 errors of the value and gradient blocks over the points
    ``x``, against the problem's analytic solution, or nan without one.

    A zero-norm reference component yields 0 when the candidate matches it
    exactly and inf otherwise.
    """
    if problem.analytic is None:
        return np.nan, np.nan
    u_hat, ubar_hat = candidate(x)
    u_ref, ubar_ref = problem.analytic(x)
    du = _ratio(np.mean(np.sum((u_hat - u_ref) ** 2, axis=1)),
                np.mean(np.sum(u_ref**2, axis=1)))
    dubar = _ratio(np.mean(np.sum((ubar_hat - ubar_ref) ** 2, axis=(1, 2))),
                   np.mean(np.sum(ubar_ref**2, axis=(1, 2))))
    return du, dubar


def _descend(net: Mlp, state: AdamState, steps: int,
             loss_grad: Callable[[], Tuple[float, np.ndarray]]) -> float:
    """``steps`` ADAM steps of ``net`` on ``loss_grad()``'s (loss, gradient
    vector) pair; returns the last loss taken, or with zero steps the loss
    taken once.  A non-finite loss raises NonFiniteValue before its step."""
    for step in range(max(steps, 1)):
        loss, grad = loss_grad()
        if not np.isfinite(loss):
            raise NonFiniteValue(f"loss {loss} at step {state.step}")
        if step < steps:
            adam_step(net, grad, state)
    return loss


def _train_regression(net: Mlp, x: np.ndarray, target_u: np.ndarray,
                      target_ubar: np.ndarray, state: AdamState,
                      steps: int) -> float:
    """Full-batch ADAM on the empirical MSE; returns the last loss seen.
    The steps share one workspace, gradient vector and stacked target."""
    target = net._raw_target(len(x), target_u, target_ubar)
    work, grad = net.workspace(len(x)), net.gradient()
    return _descend(net, state, steps,
                    functools.partial(net._mse_grad, x, target, work, grad))


def _draw_round(cfg: NnConfig, stream: RngStream, m_starts: int,
                m_inner: int) -> Tuple[np.ndarray, FkBatch]:
    """One round's ``m_starts`` start points, from ``stream.substream(0)``,
    and ``m_inner`` horizon draws per start, from ``stream.substream(1)``."""
    x0 = sample_mu0(cfg.built_problem, stream.substream(0), m_starts)
    fk = sample_fk_batch(cfg.built_problem, cfg.params, x0, m_inner, cfg.dt,
                         stream.substream(1))
    return x0, fk


def contraction_nn_solve(cfg: NnPicardConfig) -> NnSolveResult:
    """Picard iteration in network space: regress onto one-draw targets of
    the map applied to the previous net, starting from the zero candidate.

    ``nets`` holds each iteration's net, frozen as the next one's candidate.
    """
    problem = cfg.built_problem
    dim, dim_y = problem.sde.dim, problem.gen.dim_y
    base = RngStream(cfg.seed)
    eval_points = sample_mu0(problem, RngStream(cfg.seed, stream_id=1),
                             cfg.m_err)

    def zero_candidate(x):
        return np.zeros((len(x), dim_y)), np.zeros((len(x), dim_y, dim))

    previous: Candidate = zero_candidate
    net = Mlp.init(dim, dim_y, cfg.hidden_widths(), base.substream(0))
    trace: List[TraceRow] = []
    nets: List[Mlp] = []
    for n in range(1, cfg.n_iters + 1):
        start_time = time.perf_counter()
        x0, fk = _draw_round(cfg, base.substream(n), cfg.m_samples, 1)
        target_u, target_ubar = r_sample_batch(problem, cfg.params, previous, fk)
        if not (np.isfinite(target_u).all() and np.isfinite(target_ubar).all()):
            raise NonFiniteValue(f"non-finite regression target at iteration {n}")

        if n > 1 and not cfg.warm_start:
            net = Mlp.init(dim, dim_y, cfg.hidden_widths(),
                           base.substream(0).substream(n))
        state = AdamState.init(net, cfg.base_lr, cfg.lr_decay,
                               cfg.lr_decay_period)
        loss = _train_regression(net, x0, target_u, target_ubar, state,
                                 cfg.train_steps)
        nets.append(net.copy())
        previous = nets[-1]
        du, dubar = _rel_errors_at(net, problem, eval_points)
        trace.append(TraceRow(n, loss, du, dubar,
                              time.perf_counter() - start_time))
    return NnSolveResult(net, trace, nets)


def _half_residuals(value: np.ndarray, phi: np.ndarray, m_starts: int,
                    m_inner: int) -> Tuple[np.ndarray, np.ndarray]:
    """Residuals of ``value`` against the two half-sample averages of phi."""
    split = m_inner // 2
    grouped = phi.reshape(m_starts, m_inner, -1)
    flat = value.reshape(m_starts, -1)
    return (flat - grouped[:, :split].mean(axis=1),
            flat - grouped[:, split:].mean(axis=1))


def _half_upstream(r_a: np.ndarray, r_b: np.ndarray, m_starts: int,
                   m_inner: int) -> np.ndarray:
    """Per-draw upstream gradient on phi for the cross-residual loss.

    Each half's draws receive the opposite half's residual, scaled by its
    own average length, so the pairing of the loss is preserved.
    """
    split = m_inner // 2
    width = r_a.shape[1]
    q = np.empty((m_starts, m_inner, width))
    q[:, :split] = (-r_b / (m_starts * split))[:, None, :]
    q[:, split:] = (-r_a / (m_starts * (m_inner - split)))[:, None, :]
    return q.reshape(m_starts * m_inner, width)


def _residual_loss_grads(net: Mlp, gen: GeneratorSpec, x0: np.ndarray,
                         prepared: Tuple[Branch, Branch],
                         drivers: Tuple[Callable, Callable], m_starts: int,
                         m_inner: int, work: Tuple[Workspace, Workspace],
                         grads: Tuple[Gradient, Gradient],
                         ) -> Tuple[float, np.ndarray]:
    """Sampled fixed-point residual and its full parameter gradient.

    The loss pairs, per starting point, the residuals of the net against
    two independent half-sample averages of the one-draw map applied to
    the same net; the product's expectation is the squared gap to the
    exact map, with no inner-sample variance term.  Gradients flow through
    both occurrences of the net, so the inner evaluations at the two
    horizon states are backpropagated through the driver Jacobians.  The
    cross form can make an individual loss value negative.

    The caller passes what stays fixed across the steps on one batch: the
    batch's two horizon branches (:func:`branches`) as ``prepared``;
    ``drivers``, the driver bound to each branch's states
    (:func:`bind_driver`); ``work``, a workspace of ``net`` for the start
    points and one for the inner draws, which the two horizon branches
    share since they run one after the other; and ``grads``, two
    ``net.gradient()``s, the returned sum and a scratch one.  The gradient
    is returned as a vector laid out as ``net.flat``.
    """
    grad, scratch = grads
    acts0, pre0 = net._forward_cached(x0, work[0])

    # chain rule through f and the shift, branch by branch; the gradient
    # branch's Malliavin factor multiplies phi and contracts the upstream
    # gradient first
    total, losses, delta0 = grad.flat, [], []
    for branch, f_at, value0, out in zip(prepared, drivers,
                                         net._split(acts0[-1]), grads):
        x, shift, weight, malliavin = branch
        acts, pre = net._forward_cached(x, work[1])
        u, z = net._split(acts[-1])
        phi = one_draw_terms(branch, f_at(u, z), u)
        r_a, r_b = _half_residuals(value0, phi, m_starts, m_inner)
        q = _half_upstream(r_a, r_b, m_starts, m_inner)
        if malliavin is not None:
            q = np.einsum("mik,mk->mi", q.reshape(phi.shape), malliavin)
        q *= weight[:, None]
        d_u = np.einsum("mi,mij->mj", q, gen.f_y(x, u, z)) + shift * q
        d_ubar = np.einsum("mi,mijk->mjk", q, gen.f_z(x, u, z))
        # the output is spent once the Jacobians are in: its buffer takes delta
        delta = np.concatenate([d_u, d_ubar.reshape(len(x), -1)], axis=1,
                               out=acts[-1])
        net.backprop(acts, pre, delta, out=out)
        if out is scratch:
            total += scratch.flat
        losses.append(np.sum(r_a * r_b))
        delta0.append(r_a + r_b)
        del acts, pre, u, z, phi, q, d_u, d_ubar, delta

    delta0 = np.concatenate(delta0, axis=1)
    delta0 /= m_starts
    total += net.backprop(acts0, pre0, delta0, out=scratch)
    return float((losses[0] + losses[1]) / m_starts), total


def direct_nn_solve(cfg: DirectConfig) -> NnSolveResult:
    """Single-net scheme: ADAM descent on the sampled fixed-point residual.

    Each epoch redraws starting points and their inner horizon samples;
    every step then descends an unbiased estimate of the squared gap
    between the net and the map applied to that same net, built from two
    paired half-averages of the inner draws.  Nothing is frozen, so no
    contraction is needed, at the price of a driver with known y/z
    Jacobians.
    """
    problem = cfg.built_problem
    if problem.gen.f_y is None or problem.gen.f_z is None:
        raise MissingDriverDerivatives(
            f"problem {problem.name!r} supplies no driver Jacobians")
    dim, dim_y = problem.sde.dim, problem.gen.dim_y
    base = RngStream(cfg.seed)
    eval_points = sample_mu0(problem, RngStream(cfg.seed, stream_id=1),
                             cfg.m_err)

    net = Mlp.init(dim, dim_y, cfg.hidden_widths(), base.substream(0))
    state = AdamState.init(net, cfg.base_lr, cfg.lr_decay, cfg.lr_decay_period)
    work = (net.workspace(cfg.m_starts),
            net.workspace(cfg.m_starts * cfg.m_inner))
    grads = (net.gradient(), net.gradient())
    trace: List[TraceRow] = []
    for epoch in range(1, cfg.n_epochs + 1):
        start_time = time.perf_counter()
        x0, fk = _draw_round(cfg, base.substream(epoch), cfg.m_starts,
                             cfg.m_inner)
        prepared = branches(cfg.params, fk)
        drivers = tuple(bind_driver(problem.gen, x) for x, *_ in prepared)
        loss = _descend(net, state, cfg.steps_per_epoch, functools.partial(
            _residual_loss_grads, net, problem.gen, x0, prepared, drivers,
            cfg.m_starts, cfg.m_inner, work, grads))
        du, dubar = _rel_errors_at(net, problem, eval_points)
        trace.append(TraceRow(epoch, loss, du, dubar,
                              time.perf_counter() - start_time))
    return NnSolveResult(net, trace)
