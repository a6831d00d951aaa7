"""Plain-numpy multilayer perceptron with manual backprop and ADAM.

The network maps a batch of points ``(m, dim_x)`` to a value block
``(m, dim_y)`` and a gradient block ``(m, dim_y, dim_x)``, produced by one
linear output layer and split.  Everything is float64 and deterministic
given the initialisation stream, and checkpoints restore bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import as_points
from .simulate import RngStream, check_stream

# per-layer pre-activation buffers, then per-hidden-layer activation buffers
Workspace = Tuple[List[np.ndarray], List[np.ndarray]]


class Gradient(NamedTuple):
    """A gradient vector laid out as ``Mlp.flat`` and its per-parameter
    views, made together once so that ``backprop`` only writes into them."""

    flat: np.ndarray
    parts: List[np.ndarray]


def _views(flat: np.ndarray, shapes) -> List[np.ndarray]:
    """Consecutive views of ``flat``, one per shape."""
    out, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        out.append(flat[start:stop].reshape(shape))
        start = stop
    return out


def _column_sums(a: np.ndarray, out: np.ndarray) -> None:
    """``a.sum(axis=0)`` into ``out``, bit for bit.

    On a C-contiguous array of two or more columns einsum adds the rows in
    the order numpy's axis-0 sum does, 2-3x faster.  numpy sums a single
    column, or a column-major array, pairwise instead, so those keep the
    reduction (np.sum's ufunc, called without its per-call wrapper).
    """
    if a.shape[1] > 1 and a.flags.c_contiguous:
        np.einsum("ij->j", a, out=out)
    else:
        np.add.reduce(a, axis=0, out=out)


class Mlp:
    """ReLU network returning a (value, gradient) pair per input point.

    Every weight and bias lives in one float64 vector, ``flat``, in the
    order of ``parameters`` (``w0, b0, w1, b1, ...``); ``weights``,
    ``biases`` and ``parameters`` are views into it, so writing into them
    changes the net.
    """

    def __init__(self, dim_x: int, dim_y: int,
                 weights: List[np.ndarray], biases: List[np.ndarray]):
        self.dim_x = dim_x
        self.dim_y = dim_y
        arrays = [p for pair in zip(weights, biases) for p in pair]
        self.flat = np.concatenate(arrays, axis=None, dtype=float)
        self._shapes = [np.shape(p) for p in arrays]
        self.parameters = _views(self.flat, self._shapes)
        self.weights = self.parameters[0::2]
        self.biases = self.parameters[1::2]

    @classmethod
    def init(cls, dim_x: int, dim_y: int, hidden: Sequence[int],
             rng: RngStream) -> "Mlp":
        """Uniform(+-sqrt(6/fan_in)) weights, zero biases."""
        gen = check_stream(rng).generator()
        sizes = [dim_x, *hidden, dim_y + dim_y * dim_x]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / fan_in)
            weights.append(gen.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(dim_x, dim_y, weights, biases)

    def copy(self) -> "Mlp":
        return Mlp(self.dim_x, self.dim_y, self.weights, self.biases)

    def gradient(self) -> Gradient:
        """An unset gradient vector, for ``backprop``'s ``out``."""
        flat = np.empty_like(self.flat)
        return Gradient(flat, _views(flat, self._shapes))

    def workspace(self, m: int) -> Workspace:
        """Buffers for a forward and backward pass on ``m`` rows: every
        layer's pre-activation, then every hidden layer's activation."""
        widths = [w.shape[1] for w in self.weights]
        return ([np.empty((m, n)) for n in widths],
                [np.empty((m, n)) for n in widths[:-1]])

    def _forward_cached(self, x: np.ndarray, work: Optional[Workspace] = None):
        """Every layer's activation and pre-activation on the batch ``x``.

        Returns ``(acts, pre)``: ``acts[0]`` is the input and ``acts[k + 1]``
        the output of layer ``k``; the output layer is linear, so
        ``acts[-1] is pre[-1]``.  The layers are written into ``work``, a
        ``workspace(len(x))`` that the next pass with it overwrites, or into
        fresh buffers when it is omitted.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        pre, hidden = self.workspace(x.shape[0]) if work is None else work
        acts = [x]
        h = x
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = pre[k]
            if w.shape[0] == 1:
                # the one-term matmul: the input column spread over the
                # layer, then scaled by each weight; the products of a
                # broadcast product of the two, which fills two ufunc
                # buffers per call where this fills one
                a[...] = h
                a *= w
            else:
                np.matmul(h, w, out=a)
            a += b
            h = np.maximum(a, 0.0, out=hidden[k]) if k < len(hidden) else a
            acts.append(h)
        return acts, pre

    def _split(self, out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        m = out.shape[0]
        u = out[:, :self.dim_y]
        ubar = out[:, self.dim_y:].reshape(m, self.dim_y, self.dim_x)
        return u, ubar

    def __call__(self, x) -> Tuple[np.ndarray, np.ndarray]:
        acts, _ = self._forward_cached(as_points(x, self.dim_x))
        return self._split(acts[-1])

    def mse_loss(self, x: np.ndarray, target_u: np.ndarray,
                 target_ubar: np.ndarray) -> float:
        u, ubar = self(x)
        m = u.shape[0]
        res = np.sum((u - target_u) ** 2) + np.sum((ubar - target_ubar) ** 2)
        return float(res / m)

    def backprop(self, acts: List[np.ndarray], pre: List[np.ndarray],
                 delta: np.ndarray, *, out: Gradient) -> np.ndarray:
        """Parameter gradients of ``sum(delta * raw_output)``.

        ``acts``/``pre`` must come from ``_forward_cached`` on the same
        input batch, and are used up: each hidden layer's ReLU mask is
        written over its pre-activation and the delta below it over its
        activation.  ``delta`` is the upstream gradient on the raw (not yet
        split) output layer, shape ``(m, dim_y + dim_y*dim_x)``; it is left
        as it is.  The gradients are written into ``out``, a ``gradient()``,
        and its flat vector is returned.
        """
        grads = out.parts
        for k in range(len(self.weights) - 1, -1, -1):
            _column_sums(delta, grads[2 * k + 1])
            np.matmul(acts[k].T, delta, out=grads[2 * k])
            if k > 0:
                mask = np.greater(pre[k - 1], 0.0, out=pre[k - 1])
                delta = np.matmul(delta, self.weights[k].T, out=acts[k])
                delta *= mask
        return out.flat

    def _raw_target(self, m: int, target_u: np.ndarray,
                   target_ubar: np.ndarray) -> np.ndarray:
        """``m`` value and gradient targets stacked as the raw output layer."""
        target_u = np.asarray(target_u, dtype=float).reshape(m, self.dim_y)
        flat_ubar = np.asarray(target_ubar, dtype=float).reshape(m, -1)
        return np.concatenate([target_u, flat_ubar], axis=1)

    def _mse_grad(self, x: np.ndarray, target: np.ndarray, work: Workspace,
                  grad: Gradient) -> Tuple[float, np.ndarray]:
        """Loss against a ``_raw_target`` and its gradient vector, laid out
        as ``flat``, by backprop.

        The loss is the batch mean of the squared residual summed over all
        value and gradient entries.  The layers go into ``work``, a
        ``workspace(len(x))``, and the gradients into ``grad``, a
        ``gradient()``; both are overwritten by the next call.
        """
        acts, pre = self._forward_cached(x, work)
        m = target.shape[0]
        # the output is spent once read: its buffer takes the residual
        resid = np.subtract(acts[-1], target, out=acts[-1])
        # np.sum's ufunc, called without np.sum's per-call wrapper
        loss = float(np.add.reduce(resid**2, axis=None) / m)
        resid *= 2.0 / m
        return loss, self.backprop(acts, pre, resid, out=grad)


# ADAM's moment decays and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment accumulators plus the stepped learning-rate schedule.

    Each moment, ``m`` and ``v``, is one vector laid out as ``Mlp.flat``.
    """

    step: int
    m: np.ndarray
    v: np.ndarray
    base_lr: float
    decay: float
    decay_period: int

    @classmethod
    def init(cls, net: Mlp, base_lr: float, decay: float,
             decay_period: int) -> "AdamState":
        return cls(0, np.zeros_like(net.flat), np.zeros_like(net.flat),
                   base_lr, decay, decay_period)

    @property
    def learning_rate(self) -> float:
        return self.base_lr * self.decay ** (self.step // self.decay_period)


def adam_step(net: Mlp, grad: np.ndarray, state: AdamState) -> None:
    """One in-place ADAM update of every parameter of ``net``.

    ``grad`` is a gradient vector laid out as ``net.flat``, as ``backprop``
    returns it; the update runs on the flat parameter and moment vectors.
    """
    if getattr(grad, "shape", None) != net.flat.shape:
        raise ValueError("gradient does not match the parameter vector")
    lr = state.learning_rate
    t = state.step + 1
    corr1 = 1.0 - BETA1**t
    corr2 = 1.0 - BETA2**t
    mom, vel = state.m, state.v
    mom *= BETA1
    mom += (1 - BETA1) * grad
    vel *= BETA2
    vel += (1 - BETA2) * grad**2
    net.flat -= lr * (mom / corr1) / (np.sqrt(vel / corr2) + EPS)
    state.step = t


def save_checkpoint(path, net: Mlp) -> None:
    """Write the network to an npz file: ``dims``, ``w{k}`` and ``b{k}``."""
    payload = {"dims": np.array([net.dim_x, net.dim_y, len(net.weights)])}
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        payload[f"w{k}"] = w
        payload[f"b{k}"] = b
    np.savez(path, **payload)


def load_checkpoint(path) -> Mlp:
    """The net of a checkpoint; other keys (old optimiser state) are ignored."""
    with np.load(path) as data:
        dim_x, dim_y, n_layers = (int(v) for v in data["dims"])
        return Mlp(dim_x, dim_y, [data[f"w{k}"] for k in range(n_layers)],
                   [data[f"b{k}"] for k in range(n_layers)])
